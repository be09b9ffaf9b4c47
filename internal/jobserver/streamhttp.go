package jobserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"approxhadoop/internal/stream"
)

// The streaming-plane HTTP API, mounted beside the batch routes:
//
//	POST   /v1/streams            open a StreamSpec -> {"id": ...}
//	GET    /v1/streams            list stream states
//	GET    /v1/streams/{id}       one stream's state (window count, last seq)
//	DELETE /v1/streams/{id}       stop at the next window
//	GET    /v1/streams/{id}/watch JSONL WireWindow frames, one per closed
//	                              window; ?from=N resumes after seq N-1
//
// Watch frames follow the same Seq-resume contract as the batch
// /stream endpoint — and because a window series is a pure function of
// (spec, seed), a client may also reconnect to a *restarted* daemon,
// reopen the same spec, and watch from its old cursor: the frames are
// byte-identical to the ones the dead daemon would have sent.

// WireWindow is one line of the stream watch endpoint: a WindowResult
// with the NaN-unsafe interval mapped onto the -1 epsilon sentinel.
type WireWindow struct {
	Seq    int          `json:"seq"`
	Status StreamStatus `json:"status"`
	Final  bool         `json:"final,omitempty"`

	Index      int64   `json:"index"`
	Start      float64 `json:"start"`
	End        float64 `json:"end"`
	Records    int64   `json:"records"`
	Strata     int     `json:"strata"`
	Processed  int     `json:"processed"`
	Folded     int64   `json:"folded"`
	Sampled    int64   `json:"sampled"`
	Capacity   int     `json:"capacity"`
	KeepFrac   float64 `json:"keepFrac"`
	Degraded   bool    `json:"degraded,omitempty"`
	Partial    bool    `json:"partial,omitempty"`
	Exact      bool    `json:"exact,omitempty"`
	Latency    float64 `json:"latencySecs"`
	Value      float64 `json:"value"`
	Epsilon    float64 `json:"epsilon"` // CI half-width; -1 when unbounded
	Confidence float64 `json:"confidence"`
	Unbounded  bool    `json:"unbounded,omitempty"`
}

// wireWindow converts one emitted window.
func wireWindow(seq int, status StreamStatus, r stream.WindowResult) WireWindow {
	w := WireWindow{
		Seq:        seq,
		Status:     status,
		Index:      r.Index,
		Start:      r.Start,
		End:        r.End,
		Records:    r.Records,
		Strata:     r.Strata,
		Processed:  r.Processed,
		Folded:     r.Folded,
		Sampled:    r.Sampled,
		Capacity:   r.Plan.Capacity,
		KeepFrac:   r.Plan.KeepFrac,
		Degraded:   r.Degraded,
		Partial:    r.Partial,
		Exact:      r.Exact,
		Latency:    r.Latency,
		Value:      r.Est.Value,
		Epsilon:    r.Est.Err,
		Confidence: r.Est.Conf,
	}
	if math.IsNaN(w.Epsilon) || math.IsInf(w.Epsilon, 0) || math.IsNaN(w.Value) || math.IsInf(w.Value, 0) {
		if math.IsNaN(w.Value) || math.IsInf(w.Value, 0) {
			w.Value = 0
		}
		w.Epsilon = -1
		w.Unbounded = true
	}
	return w
}

// WireStream is the JSON form of one StreamState: the series itself
// flows through /watch, so the state carries counts, not windows.
type WireStream struct {
	ID      string       `json:"id"`
	Spec    StreamSpec   `json:"spec"`
	Status  StreamStatus `json:"status"`
	Err     string       `json:"error,omitempty"`
	Windows int          `json:"windows"` // frames emitted so far (next ?from cursor)
}

func wireStream(st StreamState) WireStream {
	return WireStream{ID: st.ID, Spec: st.Spec, Status: st.Status, Err: st.Err, Windows: st.frames}
}

func (d *Daemon) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	if d.fleet.Draining() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	var spec StreamSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, d.maxBody)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad stream spec: %w", err))
		return
	}
	id, err := d.streams.Open(spec)
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"id": id})
	}
}

func (d *Daemon) handleStreamList(w http.ResponseWriter, _ *http.Request) {
	states := d.streams.List()
	out := make([]WireStream, 0, len(states))
	for _, st := range states {
		out = append(out, wireStream(st))
	}
	writeJSON(w, http.StatusOK, out)
}

func (d *Daemon) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	st, ok := d.streams.Info(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no stream %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, wireStream(st))
}

func (d *Daemon) handleStreamStop(w http.ResponseWriter, r *http.Request) {
	if err := d.streams.Stop(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "stopping"})
}

// handleStreamWatch serves a continuous query's window frames, ending
// when the stream is terminal (final=true on the last frame of a
// stream that drained normally).
func (d *Daemon) handleStreamWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := d.streams.Info(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no stream %q", id))
		return
	}
	lag := d.streamLag(r)
	serveFrames(w, r, func(have int) ([]*encFrame, StreamStatus, int, error) {
		return d.streams.WatchFramesFrom(id, have, lag)
	}, synthWindowFrame)
}
