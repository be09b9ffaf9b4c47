// Continuous queries: the jobserver face of the streaming plane.
//
// A StreamSpec is the wire-level description of one continuous
// windowed query — a streaming sibling of JobSpec — naming a scenario
// from the stream catalog plus window/SLO/rate settings. StreamSet
// runs each opened stream's Pipeline on its own goroutine and
// publishes the emitted WindowResults as a Seq-numbered frame log
// that watchers resume from, mirroring Service.FramesFrom.
//
// Streams are deliberately not journaled: a window series is a pure
// function of (spec, seed), so there is no state worth checkpointing —
// a client of a restarted daemon reopens the spec and replays the
// identical series from window 0, which is cheaper and simpler than
// recovering partial reservoir state. Streams also never touch the
// shared engine or its virtual timeline; the stream plane has its own
// event-time clock, so continuous queries and batch jobs cannot
// perturb each other's schedules.
package jobserver

import (
	"errors"
	"fmt"
	"sync"

	"approxhadoop/internal/apps"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// errStreamCanceled aborts a stream's pipeline from its emit hook.
var errStreamCanceled = errors.New("jobserver: stream canceled")

// StreamSpec is the serializable description of one continuous query.
// Zero values select the documented defaults; Build validates the rest.
type StreamSpec struct {
	// Name labels the stream (default "<app>-<seed>").
	Name string `json:"name,omitempty"`
	// App names a stream-catalog scenario; see apps.StreamApps.
	App string `json:"app"`
	// Blocks/LinesPerBlock size the generated source log (defaults:
	// the app's workload defaults).
	Blocks        int `json:"blocks,omitempty"`
	LinesPerBlock int `json:"linesPerBlock,omitempty"`
	// Seed drives source pacing, every reservoir, and shedding
	// (default 1).
	Seed int64 `json:"seed,omitempty"`

	// Window/Slide are the event-time window spec in virtual seconds
	// (default 10s tumbling).
	Window float64 `json:"window,omitempty"`
	Slide  float64 `json:"slide,omitempty"`
	// TargetRelErr/MaxLatency form the SLO; both zero runs a fixed
	// plan with no controller.
	TargetRelErr float64 `json:"targetRelErr,omitempty"`
	MaxLatency   float64 `json:"maxLatency,omitempty"`
	// Capacity is the starting per-stratum reservoir size (default 64).
	Capacity int `json:"capacity,omitempty"`

	// Rate/Swing/Period shape the diurnal arrival curve (defaults
	// 400 rec/s, 0.5 swing, 120 s period; Swing 0 is a constant rate).
	Rate   float64 `json:"rate,omitempty"`
	Swing  float64 `json:"swing,omitempty"`
	Period float64 `json:"period,omitempty"`

	// MaxWindows stops the stream after N windows (0 = drain the
	// generated source).
	MaxWindows int `json:"maxWindows,omitempty"`
	// Workers overrides the fold-pool size (byte-invisible).
	Workers int `json:"workers,omitempty"`
}

// Build assembles the runnable pipeline this spec describes.
// defaultWorkers applies when the spec does not override it.
func (s StreamSpec) Build(defaultWorkers int) (*stream.Pipeline, error) {
	rate := s.Rate
	if rate <= 0 {
		rate = 400
	}
	swing := s.Swing
	if swing < 0 || swing >= 1 {
		return nil, fmt.Errorf("jobserver: stream swing %g outside [0,1)", s.Swing)
	}
	period := s.Period
	if period <= 0 {
		period = 120
	}
	var rf workload.RateFunc
	if swing > 0 {
		rf = workload.DiurnalRate(rate, swing, period)
	} else {
		rf = workload.ConstantRate(rate)
	}
	workers := s.Workers
	if workers == 0 {
		workers = defaultWorkers
	}
	window := s.Window
	if window <= 0 {
		window = 10
	}
	opts := apps.StreamOptions{
		Seed:       s.Seed,
		Rate:       rf,
		Window:     stream.Window{Size: window, Slide: s.Slide},
		SLO:        stream.SLO{TargetRelErr: s.TargetRelErr, MaxLatency: s.MaxLatency},
		Capacity:   s.Capacity,
		Workers:    workers,
		MaxWindows: s.MaxWindows,
	}
	switch s.App {
	case "edit-rate":
		gen := workload.DefaultEditLog()
		if s.Blocks > 0 {
			gen.Blocks = s.Blocks
		}
		if s.LinesPerBlock > 0 {
			gen.LinesPerBlock = s.LinesPerBlock
		}
		gen.Seed += s.Seed
		return apps.EditRateStream(gen, opts), nil
	case "web-bytes":
		gen := workload.DefaultWebLog()
		if s.Blocks > 0 {
			gen.Blocks = s.Blocks
		}
		if s.LinesPerBlock > 0 {
			gen.LinesPerBlock = s.LinesPerBlock
		}
		gen.Seed += s.Seed
		return apps.WebBytesStream(gen, opts), nil
	}
	return nil, fmt.Errorf("jobserver: unknown stream app %q (have %v)", s.App, apps.StreamApps())
}

// StreamStatus is the lifecycle state of a continuous query.
type StreamStatus string

// Stream lifecycle states.
const (
	StreamRunning  StreamStatus = "running"
	StreamDone     StreamStatus = "done"
	StreamFailed   StreamStatus = "failed"
	StreamStopped  StreamStatus = "stopped"
	StreamRejected StreamStatus = "rejected"
)

// Terminal reports whether the status is final.
func (s StreamStatus) Terminal() bool { return s != StreamRunning }

// StreamState is the externally visible state of one stream. Reads
// through Info/List return copies safe to use from any goroutine.
type StreamState struct {
	ID     string       `json:"id"`
	Spec   StreamSpec   `json:"spec"`
	Status StreamStatus `json:"status"`
	Err    string       `json:"error,omitempty"`
	// frames is the number of window frames published so far (the next
	// watch cursor).
	frames int
}

// streamEntry is the set's per-stream bookkeeping.
type streamEntry struct {
	state    *StreamState // guarded by StreamSet.mu
	canceled bool         // guarded by StreamSet.mu
	// frames is the stream's window series in its encode-once wire
	// form: one shared buffer per Seq (see frames.go). Appends happen on
	// the stream's pipeline goroutine; reads anywhere under StreamSet.mu.
	frames []*encFrame
}

// StreamSet runs and tracks continuous queries. All methods are safe
// from any goroutine.
type StreamSet struct {
	workers int
	max     int

	mu      sync.Mutex
	cond    *sync.Cond
	streams map[string]*streamEntry
	order   []string
	seq     int
	running int
	closed  bool
	wg      sync.WaitGroup

	// runDone, when set, is called on a stream's pipeline goroutine
	// after the pipeline returns and before the terminal status flip
	// (tests use it to hold a watcher between the two).
	runDone func()
}

// NewStreamSet builds a registry. maxActive caps concurrently running
// streams (default 8); workers is the default per-stream fold-pool
// size.
func NewStreamSet(maxActive, workers int) *StreamSet {
	if maxActive <= 0 {
		maxActive = 8
	}
	s := &StreamSet{workers: workers, max: maxActive, streams: make(map[string]*streamEntry)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Open validates a spec and starts its pipeline on a fresh goroutine,
// returning the stream id watchers poll.
func (s *StreamSet) Open(spec StreamSpec) (string, error) {
	p, err := spec.Build(s.workers)
	if err != nil {
		return "", err
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("%s-%d", spec.App, spec.Seed)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", errors.New("jobserver: stream set shut down")
	}
	if s.running >= s.max {
		s.mu.Unlock()
		return "", ErrBusy
	}
	id := fmt.Sprintf("stream-%04d", s.seq)
	s.seq++
	s.running++
	e := &streamEntry{state: &StreamState{ID: id, Spec: spec, Status: StreamRunning}}
	s.streams[id] = e
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.wg.Add(1)
	go s.run(e, p)
	return id, nil
}

// run drives one stream's pipeline to completion, publishing each
// closed window as a watchable frame.
func (s *StreamSet) run(e *streamEntry, p *stream.Pipeline) {
	defer s.wg.Done()
	seq := 0
	err := p.RunEach(func(r stream.WindowResult) error {
		// Encode the wire frame once, outside the lock (this pipeline
		// goroutine is the stream's only frame producer); every watcher
		// shares the buffer.
		f := newWindowFrameEnc(wireWindow(seq, StreamRunning, r))
		// The window that spends the MaxWindows budget is the last one
		// the pipeline emits: publish it already final, together with
		// the status flip, so a live watcher never sees it as running
		// and then finds the stream terminal with nothing new to send.
		last := p.MaxWindows > 0 && seq+1 == p.MaxWindows
		if last {
			f = restampWindowFrame(f, StreamDone)
		}
		s.mu.Lock()
		if e.canceled || s.closed {
			s.mu.Unlock()
			return errStreamCanceled
		}
		e.frames = append(e.frames, f)
		if last {
			e.state.Status = StreamDone
		}
		seq++
		s.mu.Unlock()
		s.cond.Broadcast()
		return nil
	})
	if s.runDone != nil {
		s.runDone()
	}
	s.mu.Lock()
	if !e.state.Status.Terminal() {
		switch {
		case errors.Is(err, errStreamCanceled):
			e.state.Status = StreamStopped
			e.state.Err = errStreamCanceled.Error()
		case err != nil:
			e.state.Status = StreamFailed
			e.state.Err = err.Error()
		default:
			e.state.Status = StreamDone
		}
		if n := len(e.frames); n > 0 {
			// A stream that ended short of its budget (drained, stopped
			// or failed) restamps its last published frame with the
			// terminal status (final=true for a drain) in the same
			// critical section as the status flip, so watchers that
			// have not read it yet observe both or neither.
			e.frames[n-1] = restampWindowFrame(e.frames[n-1], e.state.Status)
		}
	}
	s.running--
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Stop requests a running stream's pipeline to end at its next window;
// terminal streams are left alone. Unknown ids error.
func (s *StreamSet) Stop(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.streams[id]
	if !ok {
		return fmt.Errorf("jobserver: no stream %q", id)
	}
	e.canceled = true
	return nil
}

// Info returns a copy of one stream's state.
func (s *StreamSet) Info(id string) (StreamState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.streams[id]
	if !ok {
		return StreamState{}, false
	}
	return e.snapshot(), true
}

// List returns every stream's state in open order.
func (s *StreamSet) List() []StreamState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StreamState, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.streams[id].snapshot())
	}
	return out
}

// snapshot copies the entry's state under the set lock.
func (e *streamEntry) snapshot() StreamState {
	cp := *e.state
	cp.frames = len(e.frames)
	return cp
}

// WatchFramesFrom blocks until stream id has frames beyond `have` or
// is terminal, then returns the pre-encoded shared frames past `have`,
// the status, and the updated cursor — the streaming-plane mirror of
// Service.FramesFrom, with the same cursor contract (see framesAfter).
func (s *StreamSet) WatchFramesFrom(id string, have, maxLag int) ([]*encFrame, StreamStatus, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		e, ok := s.streams[id]
		if !ok {
			return nil, "", have, fmt.Errorf("jobserver: no stream %q", id)
		}
		fresh, next, ready := framesAfter(e.frames, have, maxLag, e.state.Status.Terminal())
		if ready {
			return fresh, e.state.Status, next, nil
		}
		if s.closed {
			return nil, e.state.Status, next, errors.New("jobserver: stream set shut down")
		}
		have = next
		s.cond.Wait()
	}
}

// Close stops every running stream at its next window, wakes all
// watchers, and waits for the pipelines to exit. Idempotent.
func (s *StreamSet) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}
