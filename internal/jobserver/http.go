package jobserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/wire"
)

// The HTTP/JSON API of cmd/approxd. All payloads are NaN-safe: the
// wire types below map non-finite interval half-widths onto the -1
// sentinel with Unbounded set, the same convention as
// mapreduce.WriteJSON, because encoding/json rejects NaN/Inf.
//
//	POST   /v1/jobs          submit a JobSpec   -> {"id": ...} (202 {"held": n} in hold mode)
//	GET    /v1/jobs          list job states
//	GET    /v1/jobs/{id}     one job's state
//	DELETE /v1/jobs/{id}     cancel
//	GET    /v1/jobs/{id}/result   final result (409 until terminal)
//	GET    /v1/jobs/{id}/stream   WireFrame stream: snapshots with
//	                              narrowing CIs, last frame final=true;
//	                              ?from=N resumes after sequence N-1;
//	                              ?lag=N|off tunes drop-to-latest; JSONL
//	                              by default, length-prefixed binary when
//	                              Accept names wire.ContentType
//	POST   /v1/replay        run a whole trace ([]JobSpec), return states
//	POST   /v1/release       release held submissions (hold mode)
//	GET    /v1/stats         service counters
//	GET    /healthz          liveness; 503 once the journal has failed
//	GET    /readyz           readiness; 503 while draining (Retry-After)
//
// The /v1/streams routes (streamhttp.go) are the continuous-query API
// of the streaming plane: open a StreamSpec, watch its per-window
// estimates as Seq-resumable JSONL frames, stop it.

// WireEstimate is the JSON-safe form of one KeyEstimate.
type WireEstimate struct {
	Key        string  `json:"key"`
	Value      float64 `json:"value"`
	Epsilon    float64 `json:"epsilon"` // CI half-width; -1 when unbounded
	Confidence float64 `json:"confidence"`
	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi"`
	Exact      bool    `json:"exact,omitempty"`
	Unbounded  bool    `json:"unbounded,omitempty"`
}

// WireResult is the JSON-safe form of a completed job's Result.
type WireResult struct {
	Job      string             `json:"job"`
	Runtime  float64            `json:"runtimeSecs"`
	EnergyWh float64            `json:"energyWh"`
	Counters mapreduce.Counters `json:"counters"`
	Outputs  []WireEstimate     `json:"outputs"`
}

// WireState is the JSON form of one JobState.
type WireState struct {
	ID       string      `json:"id"`
	Spec     JobSpec     `json:"spec"`
	Status   JobStatus   `json:"status"`
	SubmitVT float64     `json:"submitVT"`
	StartVT  float64     `json:"startVT"`
	EndVT    float64     `json:"endVT"`
	Err      string      `json:"error,omitempty"`
	Result   *WireResult `json:"result,omitempty"`
}

// WireFrame is one line of the streaming endpoint. Seq is the frame's
// position in the job's snapshot sequence; a client that loses its
// connection reconnects with ?from=<lastSeq+1> and resumes without
// duplicates, including across a daemon restart.
type WireFrame struct {
	Seq       int            `json:"seq"`
	T         float64        `json:"t"` // virtual seconds since job start
	Status    JobStatus      `json:"status"`
	Final     bool           `json:"final,omitempty"`
	Estimates []WireEstimate `json:"estimates"`
}

// WireEstimates converts estimates, mapping non-finite half-widths to
// the -1 sentinel.
func WireEstimates(ests []mapreduce.KeyEstimate) []WireEstimate {
	out := make([]WireEstimate, 0, len(ests))
	for _, e := range ests {
		w := WireEstimate{
			Key:        e.Key,
			Value:      e.Est.Value,
			Epsilon:    e.Est.Err,
			Confidence: e.Est.Conf,
			Lo:         e.Est.Lo(),
			Hi:         e.Est.Hi(),
			Exact:      e.Exact,
		}
		if math.IsNaN(w.Epsilon) || math.IsInf(w.Epsilon, 0) || math.IsNaN(w.Value) || math.IsInf(w.Value, 0) {
			if math.IsNaN(w.Value) || math.IsInf(w.Value, 0) {
				w.Value = 0
			}
			w.Epsilon = -1
			w.Lo = w.Value
			w.Hi = w.Value
			w.Unbounded = true
		}
		out = append(out, w)
	}
	return out
}

// wireResult converts a Result (nil-safe).
func wireResult(res *mapreduce.Result) *WireResult {
	if res == nil {
		return nil
	}
	return &WireResult{
		Job:      res.Job,
		Runtime:  res.Runtime,
		EnergyWh: res.EnergyWh,
		Counters: res.Counters,
		Outputs:  WireEstimates(res.Outputs),
	}
}

// wireState converts a JobState.
func wireState(st JobState) WireState {
	return WireState{
		ID:       st.ID,
		Spec:     st.Spec,
		Status:   st.Status,
		SubmitVT: st.SubmitVT,
		StartVT:  st.StartVT,
		EndVT:    st.EndVT,
		Err:      st.Err,
		Result:   wireResult(st.Result),
	}
}

func wireStates(sts []JobState) []WireState {
	out := make([]WireState, 0, len(sts))
	for _, st := range sts {
		out = append(out, wireState(st))
	}
	return out
}

// Handler returns the daemon's HTTP API, bounded by the
// DaemonConfig's RequestTimeout and MaxBody.
//
// The timeout wraps every quick endpoint with http.TimeoutHandler.
// Exempt by design: /stream and /watch (open-ended long polls),
// /replay and /release (synchronous batch runs whose duration is the
// work itself).
func (d *Daemon) Handler() http.Handler {
	quick := func(h http.HandlerFunc) http.Handler {
		if d.requestTimeout <= 0 {
			return h
		}
		return http.TimeoutHandler(h, d.requestTimeout, `{"error":"request timed out"}`)
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/jobs", quick(d.handleSubmit))
	mux.Handle("GET /v1/jobs", quick(d.handleList))
	mux.Handle("GET /v1/jobs/{id}", quick(d.handleGet))
	mux.Handle("DELETE /v1/jobs/{id}", quick(d.handleCancel))
	mux.Handle("GET /v1/jobs/{id}/result", quick(d.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", d.handleStream)
	mux.HandleFunc("POST /v1/replay", d.handleReplay)
	mux.HandleFunc("POST /v1/release", d.handleRelease)
	mux.Handle("GET /v1/stats", quick(d.handleStats))
	mux.Handle("POST /v1/streams", quick(d.handleStreamOpen))
	mux.Handle("GET /v1/streams", quick(d.handleStreamList))
	mux.Handle("GET /v1/streams/{id}", quick(d.handleStreamGet))
	mux.Handle("DELETE /v1/streams/{id}", quick(d.handleStreamStop))
	mux.HandleFunc("GET /v1/streams/{id}/watch", d.handleStreamWatch)
	mux.Handle("GET /healthz", quick(d.handleHealthz))
	mux.Handle("GET /readyz", quick(d.handleReadyz))
	return mux
}

// handleHealthz reports liveness: the process serves traffic and can
// still promise durability. A journal I/O failure flips it to 503 so
// an operator (or orchestrator) restarts the daemon onto a good disk.
func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if err := d.fleet.JournalErr(); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("journal failed: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "journaled": d.fleet.Shard(0).Journaled()})
}

// handleReadyz reports readiness to accept new submissions: false
// while draining (load balancers stop routing here; running jobs
// finish undisturbed) or after a journal failure.
func (d *Daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if err := d.fleet.JournalErr(); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("journal failed: %w", err))
		return
	}
	if d.fleet.Draining() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//lint:ignore errcheck the response writer owns delivery; an encode error here has no one left to tell
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, d.maxBody)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad spec: %w", err))
		return
	}
	id, held, err := d.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		// The daemon is shutting down gracefully; the journal keeps what
		// it already accepted, new work must wait for the restart.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrBusy), errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	case id == "":
		writeJSON(w, http.StatusAccepted, map[string]int{"held": held})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"id": id})
	}
}

func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, wireStates(d.fleet.Jobs()))
}

func (d *Daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := d.fleet.JobInfo(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, wireState(st))
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := d.fleet.Cancel(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceled"})
}

func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	st, ok := d.fleet.JobInfo(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	if !st.Status.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; result not ready", st.ID, st.Status))
		return
	}
	if st.Result == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s %s: %s", st.ID, st.Status, st.Err))
		return
	}
	writeJSON(w, http.StatusOK, wireResult(st.Result))
}

// wantBinary negotiates the stream encoding: a client whose Accept
// header names the binary frame media type gets length-prefixed binary
// frames; everyone else gets the legacy JSONL. Either way every
// subscriber of a job shares the same encoded buffers (frames.go).
func wantBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

// streamLag resolves the effective slow-subscriber drop threshold for
// one request: the daemon default, overridable per connection with
// ?lag=N (N frames behind a live job triggers drop-to-latest; lag=off
// disables it, e.g. for an auditing client that must see every frame).
func (d *Daemon) streamLag(r *http.Request) int {
	q := r.URL.Query().Get("lag")
	if q == "off" {
		return 0
	}
	if n, err := strconv.Atoi(q); err == nil && n > 0 {
		return n
	}
	return d.maxLag
}

// frameStatus is a frame log's lifecycle state (JobStatus or
// StreamStatus).
type frameStatus interface {
	~string
	Terminal() bool
}

// serveFrames is the serving loop behind both frame routes: it writes
// a frame log — JSONL, or binary when negotiated — from the ?from=
// cursor until the log is terminal. wait blocks for frames past a
// cursor (FramesFrom, WatchFramesFrom); synth builds the terminal
// frame sent when the log ends with nothing new to carry the ending
// (terminal before its first frame, or a fully caught-up resume), so
// clients always see an ending. Frames are pre-encoded and shared
// across subscribers; this loop only copies buffers, outside every
// lock, so its cost does not scale with frame size times subscriber
// count, and a stalled client blocks nothing but its own connection
// (falling too far behind skips it to the latest frame — the Seq gap
// tells it frames were dropped).
func serveFrames[S frameStatus](w http.ResponseWriter, r *http.Request,
	wait func(have int) ([]*encFrame, S, int, error), synth func(seq int, status S) *encFrame) {
	binary := wantBinary(r)
	if binary {
		w.Header().Set("Content-Type", wire.ContentType)
	} else {
		w.Header().Set("Content-Type", "application/jsonl")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Push the headers out before blocking for the first frame, so
	// clients observe a connected stream even on an idle log.
	flush()
	cursor := 0
	// Reconnect resume: skip frames the client already has.
	if n, err := strconv.Atoi(r.URL.Query().Get("from")); err == nil && n > 0 {
		cursor = n
	}
	for {
		fresh, status, next, err := wait(cursor)
		if err != nil {
			return
		}
		for _, f := range fresh {
			if f.WriteTo(w, binary) != nil {
				return // client went away
			}
		}
		cursor = next
		if status.Terminal() && len(fresh) == 0 {
			//lint:ignore errcheck the stream is ending either way
			_ = synth(cursor, status).WriteTo(w, binary)
		}
		flush()
		if status.Terminal() || r.Context().Err() != nil {
			return
		}
	}
}

// handleStream serves a job's snapshot frames, ending with the
// terminal frame (final=true for successful jobs).
func (d *Daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	svc := d.fleet.ServiceFor(id)
	if _, ok := svc.JobInfo(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	lag := d.streamLag(r)
	serveFrames(w, r, func(have int) ([]*encFrame, JobStatus, int, error) {
		return svc.FramesFrom(id, have, lag)
	}, synthJobFrame)
}

func (d *Daemon) handleReplay(w http.ResponseWriter, r *http.Request) {
	var specs []JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, d.maxBody)).Decode(&specs); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace: %w", err))
		return
	}
	states, err := d.fleet.Replay(specs)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, wireStates(states))
}

func (d *Daemon) handleRelease(w http.ResponseWriter, _ *http.Request) {
	states, err := d.Release()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, wireStates(states))
}

func (d *Daemon) handleStats(w http.ResponseWriter, _ *http.Request) {
	st, err := d.fleet.Stats()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
