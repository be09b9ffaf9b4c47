package jobserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"approxhadoop/internal/wire"
)

// fabricateJob installs a hand-built job state so FramesFrom can be
// unit-tested without timing games. Safe because tests run before/
// without the driver goroutine touching this id.
func fabricateJob(s *Service, id string, status JobStatus, frames int) {
	st := &JobState{ID: id, Status: status}
	for i := 0; i < frames; i++ {
		final := status == StatusDone && i == frames-1
		st.frames = append(st.frames, newJobFrame(i, float64(i), status, final, nil))
	}
	s.mu.Lock()
	s.states[id] = st
	s.mu.Unlock()
}

// frameSeq decodes an encoded frame's sequence number.
func frameSeq(t *testing.T, f *encFrame) int {
	t.Helper()
	wf, err := wire.DecodeJobFrame(f.bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return wf.Seq
}

// TestFramesFromDropToLatest: a live job with a subscriber more than
// maxLag frames behind skips the backlog and resumes at the newest
// frame — the drop is visible as a Seq gap, and the cursor lands past
// the end so the subscriber is caught up.
func TestFramesFromDropToLatest(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	fabricateJob(s, "job-live", StatusRunning, 20)

	fresh, status, next, err := s.FramesFrom("job-live", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusRunning {
		t.Fatalf("status = %s, want running", status)
	}
	if len(fresh) != 1 {
		t.Fatalf("lagging subscriber got %d frames, want 1 (drop to latest)", len(fresh))
	}
	if seq := frameSeq(t, fresh[0]); seq != 19 {
		t.Errorf("dropped-to frame has seq %d, want 19", seq)
	}
	if next != 20 {
		t.Errorf("cursor = %d, want 20", next)
	}

	// Within the lag budget nothing is dropped.
	fresh, _, _, err = s.FramesFrom("job-live", 17, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 3 {
		t.Errorf("in-budget subscriber got %d frames, want all 3", len(fresh))
	}
}

// TestFramesFromTerminalReplaysInFull: terminal jobs are history, not
// a live feed — every frame replays no matter how small the lag
// budget, so late readers still get the complete early-result series.
func TestFramesFromTerminalReplaysInFull(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	fabricateJob(s, "job-done", StatusDone, 20)

	fresh, status, next, err := s.FramesFrom("job-done", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusDone {
		t.Fatalf("status = %s, want done", status)
	}
	if len(fresh) != 20 || next != 20 {
		t.Fatalf("terminal replay returned %d frames (cursor %d), want all 20", len(fresh), next)
	}
	for i, f := range fresh {
		if seq := frameSeq(t, f); seq != i {
			t.Fatalf("frame %d has seq %d", i, seq)
		}
	}
}

// TestStreamEncodeOnceFanout: 64 concurrent subscribers replaying a
// finished job's stream share the frame buffers encoded while the job
// ran — the fan-out itself performs zero wire encodes, and every
// subscriber receives byte-identical payloads.
func TestStreamEncodeOnceFanout(t *testing.T) {
	_, ts := startDaemon(t, Config{SnapshotEvery: 2}, false)
	spec := JobSpec{Name: "mcast", App: "total-size", Blocks: 64, LinesPerBlock: 100, Seed: 4}
	var idResp struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", spec, &idResp); code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	// First read drives the job to terminal; all encodes happen here.
	first := readBinaryStream(t, ts.URL, idResp.ID)
	if bytes.Count(first, []byte{}) == 0 {
		t.Fatal("empty stream")
	}

	const subs = 64
	before := wire.Encodes()
	bodies := make([][]byte, subs)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = readBinaryStream(t, ts.URL, idResp.ID)
		}(i)
	}
	wg.Wait()
	if delta := wire.Encodes() - before; delta != 0 {
		t.Errorf("fan-out to %d subscribers performed %d encodes, want 0 (one shared buffer per frame)", subs, delta)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, first) {
			t.Fatalf("subscriber %d received different bytes than the first reader", i)
		}
	}
}

// readBinaryStream fetches a job's whole binary stream body.
func readBinaryStream(t *testing.T, base, id string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: HTTP %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("Content-Type = %q, want %q (binary negotiation failed)", ct, wire.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSlowSubscriberDoesNotDelayOthers: one watcher opens the stream
// and never reads a byte; a second watcher and the job itself must
// proceed to completion anyway — the engine never writes to
// subscriber sockets, and each handler blocks only its own goroutine.
func TestSlowSubscriberDoesNotDelayOthers(t *testing.T) {
	_, ts := startDaemon(t, Config{SnapshotEvery: 2}, false)
	spec := JobSpec{Name: "stuck-watcher", App: "clients", Blocks: 64, LinesPerBlock: 100, Seed: 9}
	var idResp struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", spec, &idResp); code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}

	// The stalled watcher: a raw connection that sends the request and
	// then never reads, with a tiny lag budget so catching it up later
	// would drop to latest rather than replay a backlog.
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/jobs/%s/stream?lag=2 HTTP/1.1\r\nHost: %s\r\n\r\n", idResp.ID, u.Host)

	// The healthy watcher must reach the terminal frame promptly.
	done := make(chan struct{})
	go func() {
		defer close(done)
		readBinaryStream(t, ts.URL, idResp.ID)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("healthy subscriber starved by a stalled one")
	}

	// And the stalled connection is still alive (the server didn't
	// crash on it): reading now yields a valid HTTP response.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("stalled watcher cannot read its response: %v", err)
	}
	if want := "HTTP/1.1 200"; len(line) < len(want) || line[:len(want)] != want {
		t.Fatalf("stalled watcher got %q, want a 200 stream", line)
	}
}

// frameHead is the part of a published frame the route tests inspect,
// with the frame's raw bytes as served (a JSONL line, or a
// length-prefixed binary frame).
type frameHead struct {
	Seq    int    `json:"seq"`
	Status string `json:"status"`
	Final  bool   `json:"final"`
	raw    []byte
}

// readFrames fetches one frame route and splits its body into frames.
// windows selects the binary decoder for /watch bodies.
func readFrames(t *testing.T, url string, binary, windows bool) []frameHead {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if binary {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out []frameHead
	if !binary {
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			h := frameHead{raw: line}
			if err := json.Unmarshal(line, &h); err != nil {
				t.Fatalf("%s: bad JSONL frame %q: %v", url, line, err)
			}
			out = append(out, h)
		}
		return out
	}
	br := bytes.NewReader(body)
	for br.Len() > 0 {
		start := len(body) - br.Len()
		payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("%s: bad binary frame: %v", url, err)
		}
		h := frameHead{raw: body[start : len(body)-br.Len()]}
		if windows {
			f, err := wire.DecodeWindowFrame(payload)
			if err != nil {
				t.Fatal(err)
			}
			h.Seq, h.Status, h.Final = f.Seq, f.Status, f.Final
		} else {
			f, err := wire.DecodeJobFrame(payload)
			if err != nil {
				t.Fatal(err)
			}
			h.Seq, h.Status, h.Final = f.Seq, f.Status, f.Final
		}
		out = append(out, h)
	}
	return out
}

// TestFrameRoutes drives both frame routes — a job's /stream and a
// continuous query's /watch — through the shared serving loop in both
// encodings: a resume mid-series, a resume past the end (one
// synthesized terminal frame), ?lag=off, and a log that ends before
// its first frame (a job canceled while queued, a stream stopped
// before its first window).
func TestFrameRoutes(t *testing.T) {
	// MaxActive 2 also admits the two continuous queries below.
	d, ts := startDaemon(t, Config{MaxActive: 2, SnapshotEvery: 2, Workers: 1}, false)

	// One driver command fills both active slots — the first job with a
	// frame series — then submits a third job, which queues, and
	// cancels it before it can start.
	sh := d.fleet.shards[0]
	var seriesJob, canceledJob string
	if err := sh.do(func() {
		var err error
		if seriesJob, err = sh.svc.Submit(JobSpec{Name: "series", App: "total-size", Blocks: 64, LinesPerBlock: 100, Seed: 4}); err != nil {
			t.Error(err)
			return
		}
		if _, err = sh.svc.Submit(JobSpec{Name: "filler", App: "total-size", Blocks: 8, LinesPerBlock: 50, Seed: 6}); err != nil {
			t.Error(err)
			return
		}
		if canceledJob, err = sh.svc.Submit(JobSpec{Name: "victim", App: "total-size", Blocks: 8, LinesPerBlock: 50, Seed: 5}); err != nil {
			t.Error(err)
			return
		}
		if err = sh.svc.Cancel(canceledJob); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if st, _ := d.fleet.JobInfo(canceledJob); st.Status != StatusCanceled || !strings.Contains(st.Err, "queued") {
		t.Fatalf("victim job: %s %q, want canceled while queued", st.Status, st.Err)
	}

	seriesStream, err := d.streams.Open(tinyStreamSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	// A window longer than the whole source closes only when the source
	// drains, long after the immediate Stop: no window is ever published.
	stopSpec := tinyStreamSpec(6)
	stopSpec.Blocks, stopSpec.Window, stopSpec.MaxWindows = 64, 1e9, 0
	stoppedStream, err := d.streams.Open(stopSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.streams.Stop(stoppedStream); err != nil {
		t.Fatal(err)
	}

	routes := []struct {
		name          string
		series, empty string // URL paths
		emptyStatus   string
		windows       bool
	}{
		{"jobs", "/v1/jobs/" + seriesJob + "/stream", "/v1/jobs/" + canceledJob + "/stream", string(StatusCanceled), false},
		{"streams", "/v1/streams/" + seriesStream + "/watch", "/v1/streams/" + stoppedStream + "/watch", string(StreamStopped), true},
	}
	for _, rt := range routes {
		var heads [2][]frameHead
		for bi, binary := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/binary=%v", rt.name, binary), func(t *testing.T) {
				get := func(path string) []frameHead { return readFrames(t, ts.URL+path, binary, rt.windows) }
				full := get(rt.series)
				heads[bi] = full
				n := len(full)
				if n < 3 {
					t.Fatalf("series has %d frames, want >= 3", n)
				}
				for i, f := range full {
					if f.Seq != i {
						t.Fatalf("frame %d has seq %d", i, f.Seq)
					}
				}
				last := full[n-1]
				if !last.Final || last.Status != "done" {
					t.Fatalf("last frame %+v, want final and done", last)
				}

				mid := get(fmt.Sprintf("%s?from=%d", rt.series, n/2))
				if len(mid) != n-n/2 {
					t.Fatalf("from=%d returned %d frames, want %d", n/2, len(mid), n-n/2)
				}
				for i, f := range mid {
					if !bytes.Equal(f.raw, full[n/2+i].raw) {
						t.Errorf("from=%d frame %d differs from the full series", n/2, i)
					}
				}

				past := get(fmt.Sprintf("%s?from=%d", rt.series, n+5))
				if len(past) != 1 || past[0].Seq != n || past[0].Status != last.Status || past[0].Final {
					t.Errorf("from past the end returned %+v, want one synthesized %s frame with seq %d", past, last.Status, n)
				}

				off := get(rt.series + "?lag=off")
				if len(off) != n {
					t.Fatalf("lag=off returned %d frames, want %d", len(off), n)
				}
				for i, f := range off {
					if !bytes.Equal(f.raw, full[i].raw) {
						t.Errorf("lag=off frame %d differs from the full series", i)
					}
				}

				empty := get(rt.empty)
				if len(empty) != 1 || empty[0].Seq != 0 || empty[0].Status != rt.emptyStatus || empty[0].Final {
					t.Errorf("log that ended before its first frame served %+v, want one synthesized %s frame with seq 0", empty, rt.emptyStatus)
				}
			})
		}
		// Both encodings carry the same frames.
		if len(heads[0]) != len(heads[1]) {
			t.Fatalf("%s: JSONL served %d frames, binary %d", rt.name, len(heads[0]), len(heads[1]))
		}
		for i := range heads[0] {
			j, b := heads[0][i], heads[1][i]
			if j.Seq != b.Seq || j.Status != b.Status || j.Final != b.Final {
				t.Errorf("%s frame %d: JSONL %+v vs binary %+v", rt.name, i, j, b)
			}
		}
	}
}
