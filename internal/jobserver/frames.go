// Encode-once snapshot multicast.
//
// The original stream endpoints re-encoded every snapshot to JSON once
// per subscriber, so a popular job's serving cost scaled as
// frames × subscribers. This file replaces that with a per-job (and,
// in streams.go, per-stream) frame log: each frame is encoded to the
// compact binary wire format exactly once, at creation, by the
// producer goroutine, and every subscriber shares the same buffer. The
// JSON view is derived lazily — at most once per frame, the first time
// a JSON subscriber needs it — and then shared the same way, so the
// legacy JSONL protocol also becomes encode-once.
//
// Frames are stamped with their status at creation time (running
// mid-job, done+final for the terminal snapshot). A job that fails or
// is canceled mid-run re-stamps only its last cached frame with the
// terminal status; all earlier frames are immutable forever. Because a
// frame's bytes never change after publication, subscribers at any
// cursor — live, resumed, or joining after a daemon restart — read
// byte-identical streams.
//
// Slow subscribers cannot stall anything structurally: the frame log
// is a pull model (FramesFrom blocks the subscriber's own HTTP handler
// goroutine, never the engine), and a subscriber whose cursor falls
// more than maxLag frames behind a live job is skipped forward to the
// latest frame. The Seq gap in its stream is the drop signal.
package jobserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/wire"
)

// encFrame is one published frame: the canonical binary payload
// (encoded exactly once, at creation) plus a lazily derived, cached
// JSON line for subscribers on the legacy protocol.
type encFrame struct {
	// bin is the canonical wire payload (without the length prefix).
	bin []byte
	// src retains the typed frame (*WireFrame or *WireWindow) the
	// payload was encoded from; the JSON view marshals it on demand.
	// Immutable after creation.
	src any
	// jsonLine caches the JSONL form: json.Marshal(src) + '\n',
	// byte-identical to what the legacy per-subscriber json.Encoder
	// produced. Installed at most once via CAS; concurrent first
	// readers may both marshal, exactly one result wins and is shared.
	jsonLine atomic.Pointer[[]byte]
}

// JSONLine returns the frame's cached JSONL encoding.
func (f *encFrame) JSONLine() ([]byte, error) {
	if p := f.jsonLine.Load(); p != nil {
		return *p, nil
	}
	b, err := json.Marshal(f.src)
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	f.jsonLine.CompareAndSwap(nil, &b)
	return *f.jsonLine.Load(), nil
}

// WriteTo sends the frame to one subscriber in the negotiated format:
// length-prefixed binary, or a JSONL line. Pure fan-out — no encoding
// happens here beyond the one-time lazy JSON derivation.
func (f *encFrame) WriteTo(w io.Writer, binary bool) error {
	if binary {
		return wire.WriteFrame(w, f.bin)
	}
	line, err := f.JSONLine()
	if err != nil {
		return err
	}
	_, err = w.Write(line)
	return err
}

// toWireEstimates converts to the wire package's estimate form.
func toWireEstimates(ests []WireEstimate) []wire.Estimate {
	out := make([]wire.Estimate, len(ests))
	for i, e := range ests {
		out[i] = wire.Estimate{
			Key: e.Key, Value: e.Value, Epsilon: e.Epsilon, Confidence: e.Confidence,
			Lo: e.Lo, Hi: e.Hi, Exact: e.Exact, Unbounded: e.Unbounded,
		}
	}
	return out
}

// fromWireEstimates converts a decoded binary frame's estimates back
// to the HTTP wire form (client side).
func fromWireEstimates(ests []wire.Estimate) []WireEstimate {
	if ests == nil {
		return nil
	}
	out := make([]WireEstimate, len(ests))
	for i, e := range ests {
		out[i] = WireEstimate{
			Key: e.Key, Value: e.Value, Epsilon: e.Epsilon, Confidence: e.Confidence,
			Lo: e.Lo, Hi: e.Hi, Exact: e.Exact, Unbounded: e.Unbounded,
		}
	}
	return out
}

// encodeJobFrame produces the canonical binary payload of wf.
func encodeJobFrame(wf *WireFrame) []byte {
	return wire.AppendJobFrame(nil, &wire.JobFrame{
		Seq:       wf.Seq,
		T:         wf.T,
		Status:    string(wf.Status),
		Final:     wf.Final,
		Estimates: toWireEstimates(wf.Estimates),
	})
}

// newJobFrame builds and encodes one job snapshot frame.
func newJobFrame(seq int, t float64, status JobStatus, final bool, ests []mapreduce.KeyEstimate) *encFrame {
	wf := &WireFrame{Seq: seq, T: t, Status: status, Final: final, Estimates: WireEstimates(ests)}
	return &encFrame{bin: encodeJobFrame(wf), src: wf}
}

// synthJobFrame is the per-connection terminal marker for jobs that
// reached a terminal state with no frame to carry it (failed before
// any snapshot, or a fully caught-up resume): Seq is the cursor, no
// estimates — exactly the frame the JSONL protocol always synthesized.
func synthJobFrame(seq int, status JobStatus) *encFrame {
	wf := &WireFrame{Seq: seq, Status: status}
	return &encFrame{bin: encodeJobFrame(wf), src: wf}
}

// restampJobFrame rebuilds a frame with a terminal status (the one
// mutation the log permits, and only ever on the last frame). The
// estimate payload is shared with the original.
func restampJobFrame(old *encFrame, status JobStatus) *encFrame {
	wf := *(old.src.(*WireFrame))
	wf.Status = status
	wf.Final = false
	return &encFrame{bin: encodeJobFrame(&wf), src: &wf}
}

// FrameFromWire converts a decoded binary job frame to the HTTP wire
// form — the client-side half of the protocol (approxctl, loadgen).
func FrameFromWire(f *wire.JobFrame) WireFrame {
	return WireFrame{
		Seq:       f.Seq,
		T:         f.T,
		Status:    JobStatus(f.Status),
		Final:     f.Final,
		Estimates: fromWireEstimates(f.Estimates),
	}
}

// encodeWindowFrame produces the canonical binary payload of ww.
func encodeWindowFrame(ww *WireWindow) []byte {
	return wire.AppendWindowFrame(nil, &wire.WindowFrame{
		Seq: ww.Seq, Status: string(ww.Status), Final: ww.Final,
		Index: ww.Index, Start: ww.Start, End: ww.End, Records: ww.Records,
		Strata: ww.Strata, Processed: ww.Processed, Folded: ww.Folded,
		Sampled: ww.Sampled, Capacity: ww.Capacity, KeepFrac: ww.KeepFrac,
		Degraded: ww.Degraded, Partial: ww.Partial, Exact: ww.Exact,
		Latency: ww.Latency, Value: ww.Value, Epsilon: ww.Epsilon,
		Confidence: ww.Confidence, Unbounded: ww.Unbounded,
	})
}

// newWindowFrameEnc builds and encodes one stream window frame.
func newWindowFrameEnc(ww WireWindow) *encFrame {
	return &encFrame{bin: encodeWindowFrame(&ww), src: &ww}
}

// restampWindowFrame rebuilds a window frame with the stream's
// terminal status; final marks a stream that drained normally.
func restampWindowFrame(old *encFrame, status StreamStatus) *encFrame {
	ww := *(old.src.(*WireWindow))
	ww.Status = status
	ww.Final = status == StreamDone
	return &encFrame{bin: encodeWindowFrame(&ww), src: &ww}
}

// synthWindowFrame mirrors synthJobFrame for the stream plane.
func synthWindowFrame(seq int, status StreamStatus) *encFrame {
	ww := WireWindow{Seq: seq, Status: status}
	return &encFrame{bin: encodeWindowFrame(&ww), src: &ww}
}

// WindowFromWire converts a decoded binary window frame to the HTTP
// wire form (client side).
func WindowFromWire(f *wire.WindowFrame) WireWindow {
	return WireWindow{
		Seq: f.Seq, Status: StreamStatus(f.Status), Final: f.Final,
		Index: f.Index, Start: f.Start, End: f.End, Records: f.Records,
		Strata: f.Strata, Processed: f.Processed, Folded: f.Folded,
		Sampled: f.Sampled, Capacity: f.Capacity, KeepFrac: f.KeepFrac,
		Degraded: f.Degraded, Partial: f.Partial, Exact: f.Exact,
		Latency: f.Latency, Value: f.Value, Epsilon: f.Epsilon,
		Confidence: f.Confidence, Unbounded: f.Unbounded,
	}
}

// DefaultMaxLag is the slow-subscriber drop threshold: a live
// subscriber more than this many frames behind is skipped forward to
// the latest frame. Generous on purpose — jobs emit tens of frames, so
// only a genuinely wedged reader ever trips it; operators lower it per
// daemon (-max-lag) or per request (?lag=N).
const DefaultMaxLag = 256

// framesAfter applies the subscriber cursor contract to one frame
// log: an out-of-range cursor is clamped, and while the log is live
// (not terminal) a cursor more than maxLag > 0 frames behind the head
// jumps to the latest frame instead of replaying the backlog (terminal
// logs replay in full — history is bounded and nothing produces any
// more). It returns a copy of the frames past the cursor, the updated
// cursor, and whether the caller has anything to return (fresh frames,
// or a terminal log); otherwise it must wait. Callers hold the lock
// guarding log, and the copy lets them write frames outside it while
// the producer restamps the last frame in place.
func framesAfter(log []*encFrame, have, maxLag int, terminal bool) ([]*encFrame, int, bool) {
	have = min(max(have, 0), len(log))
	if !terminal && maxLag > 0 && len(log)-have > maxLag {
		have = len(log) - 1
	}
	if len(log) == have && !terminal {
		return nil, have, false
	}
	return append([]*encFrame(nil), log[have:]...), len(log), true
}

// FramesFrom blocks until job id has frames beyond `have` or is
// terminal, then returns the fresh shared frames, the status, and the
// updated cursor (see framesAfter for the clamp and the maxLag
// slow-subscriber policy). Each frame carries its own Seq, so drops
// appear to the client as Seq gaps. Safe from any goroutine.
func (s *Service) FramesFrom(id string, have, maxLag int) ([]*encFrame, JobStatus, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		st, ok := s.states[id]
		if !ok {
			return nil, "", have, fmt.Errorf("jobserver: no job %q", id)
		}
		fresh, next, ready := framesAfter(st.frames, have, maxLag, st.Status.Terminal())
		if ready {
			return fresh, st.Status, next, nil
		}
		if s.closed {
			return nil, st.Status, next, errors.New("jobserver: service shut down")
		}
		have = next
		s.cond.Wait()
	}
}
