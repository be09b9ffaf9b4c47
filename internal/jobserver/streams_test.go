package jobserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

// tinyStreamSpec is a continuous query small enough for unit tests.
func tinyStreamSpec(seed int64) StreamSpec {
	return StreamSpec{
		App:           "edit-rate",
		Blocks:        8,
		LinesPerBlock: 1500,
		Seed:          seed,
		Window:        5,
		MaxLatency:    0.05,
		Rate:          300,
		Swing:         0.5,
		Period:        60,
		MaxWindows:    6,
	}
}

// watchAll drains a stream's frame log through WatchFramesFrom the
// way the HTTP handler does: loop on the cursor until terminal.
func watchAll(t *testing.T, s *StreamSet, id string, from int) ([]*encFrame, StreamStatus) {
	t.Helper()
	var wins []*encFrame
	cursor := from
	for {
		fresh, status, next, err := s.WatchFramesFrom(id, cursor, 0)
		if err != nil {
			t.Fatalf("WatchFramesFrom(%s, %d): %v", id, cursor, err)
		}
		wins = append(wins, fresh...)
		cursor = next
		if status.Terminal() {
			return wins, status
		}
	}
}

// seriesBytes concatenates frames' binary payloads: equal bytes mean a
// byte-identical published series.
func seriesBytes(frames []*encFrame) []byte {
	var b []byte
	for _, f := range frames {
		b = append(b, f.bin...)
	}
	return b
}

// TestStreamSetWatchAndResume: a watcher sees every window frame
// exactly once, a resumed watcher sees exactly the suffix, and
// reopening the same spec — even in a fresh set, as after a daemon
// restart — replays a byte-identical series.
func TestStreamSetWatchAndResume(t *testing.T) {
	s := NewStreamSet(4, 2)
	defer s.Close()
	id, err := s.Open(tinyStreamSpec(11))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	wins, status := watchAll(t, s, id, 0)
	if status != StreamDone {
		t.Fatalf("stream ended %s; want done", status)
	}
	if len(wins) != 6 {
		t.Fatalf("watched %d windows; want 6 (MaxWindows)", len(wins))
	}

	// Resume mid-series: the suffix must match what the full watch saw.
	tail, _ := watchAll(t, s, id, 3)
	if len(tail) != 3 {
		t.Fatalf("resume from 3 returned %d windows; want 3", len(tail))
	}
	if !bytes.Equal(seriesBytes(tail), seriesBytes(wins[3:])) {
		t.Errorf("resumed suffix differs from the original series")
	}
	// A cursor past the end clamps instead of erroring.
	none, st2, next, err := s.WatchFramesFrom(id, 99, 0)
	if err != nil || len(none) != 0 || next != 6 || !st2.Terminal() {
		t.Errorf("over-large cursor: got %d wins, status %s, next %d, err %v", len(none), st2, next, err)
	}

	// Replay-from-spec: a second set (a restarted daemon) re-emits the
	// identical series.
	s2 := NewStreamSet(4, 7)
	defer s2.Close()
	id2, err := s2.Open(tinyStreamSpec(11))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	wins2, _ := watchAll(t, s2, id2, 0)
	if !bytes.Equal(seriesBytes(wins), seriesBytes(wins2)) {
		t.Errorf("reopened stream series differs:\n%x\nvs\n%x", seriesBytes(wins), seriesBytes(wins2))
	}
}

// TestStreamSetValidation: broken specs are rejected at Open, not at
// first window.
func TestStreamSetValidation(t *testing.T) {
	s := NewStreamSet(2, 1)
	defer s.Close()
	if _, err := s.Open(StreamSpec{App: "no-such-app"}); err == nil {
		t.Errorf("unknown app accepted")
	}
	if _, err := s.Open(StreamSpec{App: "edit-rate", Swing: 1.5}); err == nil {
		t.Errorf("swing >= 1 accepted")
	}
	if _, err := s.Open(tinyStreamSpec(1)); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestStreamHTTPWatch: the /v1/streams routes end to end — open over
// HTTP, watch the JSONL frames to the final one, resume with ?from,
// and read back the listed state.
func TestStreamHTTPWatch(t *testing.T) {
	d, err := NewDaemon(DaemonConfig{Service: Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	spec, _ := json.Marshal(tinyStreamSpec(5))
	resp, err := srv.Client().Post(srv.URL+"/v1/streams", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var opened map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		t.Fatalf("open decode: %v", err)
	}
	resp.Body.Close()
	id := opened["id"]
	if id == "" {
		t.Fatalf("open returned no id: %v", opened)
	}

	frames := watchHTTP(t, srv, id, 0)
	if len(frames) != 6 {
		t.Fatalf("watched %d frames; want 6", len(frames))
	}
	for i, f := range frames {
		if f.Seq != i {
			t.Fatalf("frame %d has seq %d; frames must be gap-free", i, f.Seq)
		}
		if f.Records <= 0 {
			t.Errorf("frame %d carries no records", i)
		}
	}
	if !frames[len(frames)-1].Final {
		t.Errorf("last frame not marked final")
	}

	// Seq-resume: frames 4.. must match the first watch byte-for-byte
	// up to the Status field (terminal on resume).
	tail := watchHTTP(t, srv, id, 4)
	if len(tail) != 2 || tail[0].Seq != 4 {
		t.Fatalf("resume from 4: got %d frames starting at %v", len(tail), tail)
	}
	if tail[0].Index != frames[4].Index || tail[0].Value != frames[4].Value { //lint:ignore nofloateq resumed frames must be bit-identical
		t.Errorf("resumed frame differs: %+v vs %+v", tail[0], frames[4])
	}

	var listed []WireStream
	if code := getJSON(t, srv.URL+"/v1/streams", &listed); code != 200 {
		t.Fatalf("list returned %d", code)
	}
	if len(listed) != 1 || listed[0].ID != id || listed[0].Windows != 6 || listed[0].Status != StreamDone {
		t.Errorf("listed state %+v; want %s done with 6 windows", listed, id)
	}

	// Bad specs come back 400.
	resp, err = srv.Client().Post(srv.URL+"/v1/streams", "application/json", bytes.NewReader([]byte(`{"app":"nope"}`)))
	if err != nil {
		t.Fatalf("bad open: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown app returned %d; want 400", resp.StatusCode)
	}
}

// TestStreamWatchEndsOnBudgetFrame forces the interleaving behind a
// once-flaky TestStreamHTTPWatch: a live watcher has read the last
// window while the pipeline goroutine is held between returning and
// its terminal bookkeeping. The last window of a MaxWindows budget
// must already be final when the watcher reads it, so the watch ends
// on it rather than on a synthesized extra frame.
func TestStreamWatchEndsOnBudgetFrame(t *testing.T) {
	d, err := NewDaemon(DaemonConfig{Service: Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	d.streams.runDone = func() { <-release }

	spec := tinyStreamSpec(5)
	id, err := d.streams.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/streams/" + id + "/watch")
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer resp.Body.Close()
	var frames []WireWindow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var f WireWindow
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
		if f.Seq == spec.MaxWindows-1 {
			// The pipeline goroutine is (or soon will be) parked in
			// runDone; the stream must already read as done.
			if st, _ := d.streams.Info(id); st.Status != StreamDone {
				t.Errorf("status %s after the budget's last window; want done", st.Status)
			}
			unblock()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("watch read: %v", err)
	}
	if len(frames) != spec.MaxWindows {
		t.Fatalf("watched %d frames; want %d", len(frames), spec.MaxWindows)
	}
	last := frames[len(frames)-1]
	if last.Seq != spec.MaxWindows-1 || !last.Final || last.Status != StreamDone {
		t.Errorf("last frame seq %d final %v status %s; want seq %d, final, done",
			last.Seq, last.Final, last.Status, spec.MaxWindows-1)
	}
}

// watchHTTP drains /v1/streams/{id}/watch?from=N into frames.
func watchHTTP(t *testing.T, srv *httptest.Server, id string, from int) []WireWindow {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/v1/streams/" + id + "/watch?from=" + strconv.Itoa(from))
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer resp.Body.Close()
	var frames []WireWindow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var f WireWindow
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("watch read: %v", err)
	}
	return frames
}
