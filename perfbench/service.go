package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"approxhadoop/internal/wire"
)

// The service workload drives the approxd binary over HTTP only: JSON
// specs in, binary frames (wire.ReadFrame) and JSON results out. The
// daemon runs with 2 shards, a journal and a snapshot every 5 virtual
// seconds. Each op is POST /v1/jobs, a binary watch to the terminal
// frame, then GET /result. The timed run has two closed loops: one
// client sending ops back to back measures latency, where no op waits
// behind another; nproc clients then measure capacity. The traced run
// is an open loop of Poisson arrivals at serviceRate from nproc
// keep-alive connections.

const (
	// serviceRate is the traced open loop's arrival rate in ops/s: a
	// quarter to a half of the closed-loop capacity measured when the
	// benchmark was defined (see README.md).
	serviceRate    = 25
	serviceSpecs   = 120 // spec cycle: 40 data sets × {precise, static, target}
	serviceTenants = 8
	opTimeout      = 30 * time.Second
	frameType      = "application/x-approx-frame"
)

// jobSpec mirrors the daemon's JSON job spec.
type jobSpec struct {
	App           string  `json:"app"`
	Blocks        int     `json:"blocks,omitempty"`
	LinesPerBlock int     `json:"linesPerBlock,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Tenant        string  `json:"tenant,omitempty"`
	Controller    string  `json:"controller,omitempty"`
	SampleRatio   float64 `json:"sampleRatio,omitempty"`
	DropRatio     float64 `json:"dropRatio,omitempty"`
	Target        float64 `json:"target,omitempty"`
}

// wireEstimate mirrors one estimate of GET /v1/jobs/{id}/result.
type wireEstimate struct {
	Key        string  `json:"key"`
	Value      float64 `json:"value"`
	Epsilon    float64 `json:"epsilon"`
	Confidence float64 `json:"confidence"`
	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi"`
	Exact      bool    `json:"exact,omitempty"`
	Unbounded  bool    `json:"unbounded,omitempty"`
}

type wireResult struct {
	Outputs json.RawMessage `json:"outputs"`
}

type serviceStats struct {
	Active    int `json:"active"`
	Queued    int `json:"queued"`
	Submitted int `json:"submitted"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
}

// serviceSpecSet is the spec cycle: 40 data sets (8 per catalog app),
// each run under the precise, a static and a target controller, so
// the precise spec is its two approximate siblings' reference. Sizes
// are evenly spaced over 12–96 blocks and 80–200 lines per block,
// spread over the data sets by fixed strides, and the static ratios
// alternate by replica, so the seed only draws each data set's seed:
// the work and the approximation mix of a cycle do not change between
// seeds.
func serviceSpecSet(seed int64, smoke bool) []jobSpec {
	rng := rand.New(rand.NewSource(seed))
	appNames := []string{"project-popularity", "page-popularity", "total-size", "clients", "wiki-length"}
	ctls := []string{"precise", "static", "target"}
	n := serviceSpecs
	if smoke {
		n = 15
	}
	sets := n / len(ctls)
	out := make([]jobSpec, 0, n)
	for g := 0; g < sets; g++ {
		// Strides coprime with the number of data sets spread the evenly
		// spaced sizes over the apps.
		base := jobSpec{
			App:           appNames[g%len(appNames)],
			Blocks:        12 + (84*(g*7%sets)+42)/sets,
			LinesPerBlock: 80 + (120*(g*11%sets)+60)/sets,
			Seed:          1 + rng.Int63n(1<<30),
		}
		if smoke {
			base.Blocks, base.LinesPerBlock = 12, 80
		}
		replica := g / len(appNames)
		for _, c := range ctls {
			s := base
			s.Controller = c
			switch c {
			case "static":
				s.SampleRatio, s.DropRatio = []float64{0.25, 0.5}[replica%2], []float64{0.25, 0}[replica%2]
			case "target":
				s.Target = 0.05
			}
			out = append(out, s)
		}
	}
	return out
}

// daemon is one approxd child process.
type daemon struct {
	cmd  *exec.Cmd
	pid  int
	base string
	dir  string
	logs *bytes.Buffer
	done chan struct{} // closed when the stderr reader has finished
}

func startDaemon(bin, dir string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("--approxd not set")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-shards", "2",
		"-journal", filepath.Join(dir, "wal.jsonl"), "-snapshot-every", "5", "-grace", "2s")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, dir: dir, logs: &bytes.Buffer{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	// The reader goroutine is the only writer of d.logs; read them only
	// after stop has waited for it.
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "serving on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
			if d.logs.Len() < 1<<16 {
				d.logs.WriteString(line + "\n")
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("approxd did not report its address: %s", d.logs.String())
	}
	return d, nil
}

// stop terminates the daemon (SIGTERM, then SIGKILL) and waits for it.
func (d *daemon) stop() {
	if d.cmd.Process == nil {
		return
	}
	//lint:ignore errcheck the process may already have exited; Wait reports how it ended
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan struct{})
	go func() {
		//lint:ignore errcheck a daemon stopped by signal exits non-zero by design
		_ = d.cmd.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		//lint:ignore errcheck best-effort kill after the grace expired
		_ = d.cmd.Process.Kill()
		<-waited
	}
	<-d.done
}

// client issues ops over at most nproc keep-alive connections.
type client struct {
	http  *http.Client
	base  string
	conns int
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: opTimeout}, base: base, conns: conns}
}

// opRecord is one submit → watch → result round trip; times are ns
// since epoch.
type opRecord struct {
	spec                  int
	due, sent, ack        int64
	first, terminal, done int64
	frames, bytes         int
	decodeNs              int64
	id                    string
	digest                [32]byte
	outputs               []wireEstimate
	err                   error
	rejected              bool
	frameMatches          bool
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	//lint:ignore errcheck the body is read to the end; closing only returns the connection
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// submit posts one spec and returns the job id.
func (c *client) submit(spec jobSpec) (id string, rejected bool, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", false, err
	}
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	//lint:ignore errcheck the body is read to the end; closing only returns the connection
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return "", true, fmt.Errorf("submit refused: %s", resp.Status)
	}
	if resp.StatusCode != http.StatusOK {
		return "", false, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &ack); err != nil || ack.ID == "" {
		return "", false, fmt.Errorf("submit: bad ack %q", b)
	}
	return ack.ID, false, nil
}

// op runs one round trip for spec (index specIdx) due at due.
func (c *client) op(spec jobSpec, specIdx int, due int64) opRecord {
	r := opRecord{spec: specIdx, due: due, sent: nowNs()}
	r.id, r.rejected, r.err = c.submit(spec)
	r.ack = nowNs()
	if r.err != nil {
		return r
	}
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+r.id+"/stream", nil)
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Accept", frameType)
	resp, err := c.http.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		//lint:ignore errcheck error path; closing only releases the connection
		resp.Body.Close()
		r.err = fmt.Errorf("watch %s: %s", r.id, resp.Status)
		return r
	}
	var last *wire.JobFrame
	br := bufio.NewReader(resp.Body)
	for {
		payload, err := wire.ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = err
			break
		}
		t := nowNs()
		f, err := wire.DecodeJobFrame(payload)
		r.decodeNs += nowNs() - t
		if err != nil {
			r.err = err
			break
		}
		if r.frames == 0 {
			r.first = t
		}
		r.frames++
		r.bytes += 4 + len(payload)
		last = f
		if terminalStatus(f.Status) {
			r.terminal = nowNs()
		}
	}
	//lint:ignore errcheck the stream was read to its end or abandoned on error; closing only releases the connection
	resp.Body.Close()
	if r.err != nil {
		return r
	}
	if last == nil || r.terminal == 0 || last.Status != "done" {
		r.err = fmt.Errorf("job %s: stream ended without a done frame", r.id)
		return r
	}
	var res wireResult
	if err := c.getJSON("/v1/jobs/"+r.id+"/result", &res); err != nil {
		r.err = err
		return r
	}
	r.done = nowNs()
	r.digest = sha256.Sum256(res.Outputs)
	if err := json.Unmarshal(res.Outputs, &r.outputs); err != nil {
		r.err = err
		return r
	}
	r.frameMatches = sameEstimates(last.Estimates, r.outputs)
	return r
}

func terminalStatus(s string) bool {
	switch s {
	case "done", "failed", "canceled", "rejected":
		return true
	}
	return false
}

// sameEstimates compares the terminal frame with GET /result field by
// field, floats bit for bit.
func sameEstimates(f []wire.Estimate, r []wireEstimate) bool {
	if len(f) != len(r) {
		return false
	}
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, e := range f {
		w := r[i]
		if e.Key != w.Key || !eq(e.Value, w.Value) || !eq(e.Epsilon, w.Epsilon) || !eq(e.Confidence, w.Confidence) ||
			!eq(e.Lo, w.Lo) || !eq(e.Hi, w.Hi) || e.Exact != w.Exact || e.Unbounded != w.Unbounded {
			return false
		}
	}
	return true
}

// svcState is one booted daemon with its references.
type svcState struct {
	d       *daemon
	c       *client
	specs   []jobSpec
	refs    map[int]map[string]float64 // approximate spec index → its precise sibling's outputs
	digests map[int][32]byte           // spec index → expected result digest
	results map[int][]wireEstimate
	// reordered counts ops whose result matched the spec's earlier run
	// only to rounding, not bit for bit.
	reordered int
}

func tenantOf(i int) string { return "t" + strconv.Itoa(i%serviceTenants) }

func (cfg *config) serviceSetup(rep *report, boot int) (*svcState, error) {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("service-seed%d-boot%d", cfg.seed, boot))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.approxd, dir)
	if err != nil {
		return nil, err
	}
	st := &svcState{d: d, c: newClient(d.base, cfg.workers), specs: serviceSpecSet(cfg.seed, cfg.smoke),
		refs: map[int]map[string]float64{}, digests: map[int][32]byte{}, results: map[int][]wireEstimate{}}
	fail := func(err error) (*svcState, error) {
		d.stop()
		return nil, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		var ready map[string]any
		if err := st.c.getJSON("/readyz", &ready); err == nil {
			break
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("approxd never became ready: %s", d.logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// One warm-up pass whose digests every later op of the same spec
	// must reproduce; each precise result is the reference of the
	// approximate specs on its data.
	var precise map[string]float64
	for i, s := range st.specs {
		s.Tenant = tenantOf(i)
		r := st.c.op(s, i, nowNs())
		if r.err != nil {
			return fail(fmt.Errorf("warm-up of spec %d: %w", i, r.err))
		}
		rep.gate(r.frameMatches, "spec %d: terminal frame differs from GET /result", i)
		st.digests[i], st.results[i] = r.digest, r.outputs
		if s.Controller == "precise" {
			precise = map[string]float64{}
			for _, o := range r.outputs {
				precise[o.Key] = o.Value
			}
			continue
		}
		st.refs[i] = precise
	}
	return st, nil
}

// loadPhase is the outcome of one open- or closed-loop phase.
type loadPhase struct {
	ops           []opRecord
	start, wallNs int64
	cpuNs         int64
	journalBytes  int64
	writeSyscalls float64
	syscallsOK    bool
	statsBefore   serviceStats
	statsAfter    serviceStats
}

func dirBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// runLoad runs an open loop (rate > 0: Poisson arrivals for budget over
// nproc connections) or a closed loop (rate == 0: clients sending ops
// back to back for budget).
func (st *svcState) runLoad(cfg *config, rng *rand.Rand, rate float64, clients int, budgetNs int64, next *atomic.Int64) (*loadPhase, error) {
	ph := &loadPhase{}
	if err := st.c.getJSON("/v1/stats", &ph.statsBefore); err != nil {
		return nil, err
	}
	cpu0, err := procCPUNs(st.d.pid)
	if err != nil {
		return nil, err
	}
	sc0, ok0 := procWriteSyscalls(st.d.pid)
	j0 := dirBytes(st.d.dir)
	start := nowNs()
	ph.start = start
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(r opRecord) {
		mu.Lock()
		ph.ops = append(ph.ops, r)
		mu.Unlock()
	}
	if rate > 0 {
		var dues []int64
		for t := start; ; {
			t += int64(rng.ExpFloat64() / rate * 1e9)
			if t-start >= budgetNs {
				break
			}
			dues = append(dues, t)
		}
		type job struct {
			spec int
			due  int64
		}
		queue := make(chan job, len(dues)) // sized to the number of sends
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range queue {
					s := st.specs[j.spec]
					s.Tenant = tenantOf(j.spec)
					record(st.c.op(s, j.spec, j.due))
				}
			}()
		}
		for _, due := range dues {
			if d := due - nowNs(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			i := int(next.Add(1)-1) % len(st.specs)
			queue <- job{spec: i, due: due}
		}
		close(queue)
	} else {
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for nowNs()-start < budgetNs {
					i := int(next.Add(1)-1) % len(st.specs)
					s := st.specs[i]
					s.Tenant = tenantOf(i)
					record(st.c.op(s, i, nowNs()))
				}
			}()
		}
	}
	wg.Wait()
	ph.wallNs = nowNs() - start
	cpu1, err := procCPUNs(st.d.pid)
	if err != nil {
		return nil, err
	}
	ph.cpuNs = cpu1 - cpu0
	sc1, ok1 := procWriteSyscalls(st.d.pid)
	ph.writeSyscalls, ph.syscallsOK = sc1-sc0, ok0 && ok1
	ph.journalBytes = dirBytes(st.d.dir) - j0
	if err := st.c.getJSON("/v1/stats", &ph.statsAfter); err != nil {
		return nil, err
	}
	return ph, nil
}

// check applies the per-op gates and counts failures.
func (st *svcState) check(rep *report, ph *loadPhase) {
	for _, r := range ph.ops {
		rep.attempted++
		if r.err != nil {
			rep.failed++
			if !r.rejected {
				rep.gate(false, "op %s (spec %d): %v", r.id, r.spec, r.err)
			}
			continue
		}
		rep.gate(r.frameMatches, "op %s: terminal frame differs from GET /result", r.id)
		if r.digest == st.digests[r.spec] {
			continue
		}
		// Under contention a job's map outputs reach its reducers in a
		// different order, so floating-point sums may differ in the last
		// bits; the values must still agree to rounding.
		st.reordered++
		rep.gate(closeEstimates(r.outputs, st.results[r.spec]), "op %s: spec %d result differs from its earlier run beyond rounding", r.id, r.spec)
	}
}

// closeEstimates compares two results of one spec: same keys and flags,
// numbers equal to 1e-9 relative.
func closeEstimates(a, b []wireEstimate) bool {
	if len(a) != len(b) {
		return false
	}
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y)) }
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || x.Exact != y.Exact || x.Unbounded != y.Unbounded ||
			!near(x.Value, y.Value) || !near(x.Epsilon, y.Epsilon) || !near(x.Lo, y.Lo) || !near(x.Hi, y.Hi) {
			return false
		}
	}
	return true
}

// completeMs is each op's due → terminal-frame latency; failed ops
// count as the op timeout, so they miss any latency limit.
func completeMs(ops []opRecord) []float64 {
	out := make([]float64, 0, len(ops))
	for _, r := range ops {
		if r.err != nil {
			out = append(out, float64(opTimeout.Milliseconds()))
			continue
		}
		out = append(out, float64(r.terminal-r.due)/1e6)
	}
	return out
}

// lagGrew reports whether the open loop fell behind over the phase:
// the median send lag of the last quarter of ops exceeds that of the
// first quarter by more than 50 ms. A backlog that grows moves the
// median; a stall that clears does not.
func lagGrew(ops []opRecord) (bool, float64, float64) {
	n := len(ops) / 4
	if n == 0 {
		return false, 0, 0
	}
	lag := func(rs []opRecord) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, float64(r.sent-r.due)/1e6)
		}
		return median(xs)
	}
	sorted := append([]opRecord(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].due < sorted[j].due })
	a, b := lag(sorted[:n]), lag(sorted[len(sorted)-n:])
	return b > a+50, a, b
}

func runService(cfg *config) (*report, error) {
	rep := newReport()
	boots := 0
	setup := func() (*svcState, error) {
		boots++
		return cfg.serviceSetup(rep, boots)
	}
	var st *svcState
	var err error
	if cfg.trace {
		st, err = setup()
	} else {
		st, err = timeSetups(cfg, rep, setup, (*svcState).close)
	}
	if err != nil {
		return nil, err
	}
	defer st.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	var next atomic.Int64
	budget := int64(cfg.seconds * 1e9)

	// Accuracy: every approximate spec's result against its precise sibling.
	var acc accuracy
	for i := range st.specs {
		if ref, ok := st.refs[i]; ok {
			acc.addJob(st.specs[i].App+"/"+st.specs[i].Controller, serviceEstimates(st.results[i]), ref)
		}
	}

	if !cfg.trace {
		// The daemon retains finished jobs, so its peak RSS is read after
		// set-up, a fixed number of jobs; the loops' job counts vary with
		// the host's speed.
		rss, err := peakRSSMiB(strconv.Itoa(st.d.pid))
		if err != nil {
			return nil, err
		}
		serial, err := st.runLoad(cfg, rng, 0, 1, budget/2, &next)
		if err != nil {
			return nil, err
		}
		closed, err := st.runLoad(cfg, rng, 0, cfg.workers, budget/2, &next)
		if err != nil {
			return nil, err
		}
		st.check(rep, serial)
		st.check(rep, closed)
		wallMetrics(rep, cfg.steal, serial.blocks(false), closed.blocks(true))
		rep.metrics["cpu_ms_per_op"] = float64(serial.cpuNs) / 1e6 / float64(max(len(serial.ops), 1))
		acc.report(rep)
		if err := st.finalGates(rep); err != nil {
			return nil, err
		}
		rep.metrics["peak_rss_mb"] = rss
		rep.notes["serial_ops"], rep.notes["closed_ops"] = len(serial.ops), len(closed.ops)
		rep.notes["results_equal_only_to_rounding"] = st.reordered
		return rep, nil
	}
	open, err := st.runLoad(cfg, rng, serviceRate, 0, budget, &next)
	if err != nil {
		return nil, err
	}
	st.check(rep, open)
	st.validate(rep, open)
	if err := st.finalGates(rep); err != nil {
		return nil, err
	}
	st.traceLayers(rep, open)
	rep.notes["rate"] = serviceRate
	rep.notes["results_equal_only_to_rounding"] = st.reordered
	return rep, nil
}

// close stops the daemon and removes its scratch journal.
func (st *svcState) close() {
	st.d.stop()
	//lint:ignore errcheck scratch journal; the run's numbers are already taken
	_ = os.RemoveAll(st.d.dir)
}

// serviceEstimates converts a result's outputs for scoring.
func serviceEstimates(ws []wireEstimate) []estimate {
	out := make([]estimate, len(ws))
	for i, w := range ws {
		out[i] = estimate{key: w.Key, value: w.Value, halfWidth: w.Epsilon, exact: w.Exact, bounded: !w.Unbounded}
	}
	return out
}

// blocks cuts the phase into one-second blocks: ops by due time with
// their complete latencies, or completions by finish time (byDone).
func (ph *loadPhase) blocks(byDone bool) []*block {
	n := max(int(ph.wallNs/1e9), 1)
	out := make([]*block, n)
	for i := range out {
		out[i] = newBlock(ph.start + int64(i)*1e9)
		out[i].end = out[i].start + 1e9
	}
	for _, r := range ph.ops {
		t := r.due
		if byDone {
			t = r.done
		}
		i := int((t - ph.start) / 1e9)
		if i < 0 || i >= n {
			continue
		}
		if byDone {
			if r.err == nil {
				out[i].ops++
			}
			continue
		}
		// Specs differ severalfold in cost, so latencies are grouped by
		// spec (see wallMetrics): a quantile over a mix of specs would sit
		// on a boundary between them.
		label := "spec" + strconv.Itoa(r.spec)
		out[i].lat[label] = append(out[i].lat[label], completeMs([]opRecord{r})...)
	}
	return out
}

// validate marks an open-loop phase invalid when its backlog grew.
func (st *svcState) validate(rep *report, ph *loadPhase) {
	grew, first, last := lagGrew(ph.ops)
	rep.gate(!grew, "open loop fell behind: median send lag %.1f ms in the first quarter, %.1f ms in the last", first, last)
	rep.gate(ph.statsAfter.Queued <= ph.statsBefore.Queued+st.c.conns, "daemon queue grew from %d to %d", ph.statsBefore.Queued, ph.statsAfter.Queued)
}

// finalGates checks counter conservation and cross-shard identity on
// the idle daemon.
func (st *svcState) finalGates(rep *report) error {
	var s serviceStats
	if err := st.c.getJSON("/v1/stats", &s); err != nil {
		return err
	}
	rep.gate(s.Submitted == s.Done+s.Failed+s.Canceled+s.Queued+s.Active,
		"/v1/stats does not conserve jobs: submitted %d != done %d + failed %d + canceled %d + queued %d + active %d",
		s.Submitted, s.Done, s.Failed, s.Canceled, s.Queued, s.Active)
	// Resubmit spec 0 under tenants until two land on different shards.
	spec := st.specs[0]
	var firstID string
	var firstDigest [32]byte
	for t := 0; t < 64; t++ {
		spec.Tenant = fmt.Sprintf("xs%d", t)
		r := st.c.op(spec, 0, nowNs())
		if r.err != nil {
			return fmt.Errorf("cross-shard check: %w", r.err)
		}
		if firstID == "" {
			firstID, firstDigest = r.id, r.digest
			continue
		}
		if shardOf(r.id) != shardOf(firstID) {
			rep.gate(r.digest == firstDigest, "spec 0 on %s and %s: results differ across shards", firstID, r.id)
			return nil
		}
	}
	rep.gate(false, "cross-shard check: 64 tenants all placed on one shard")
	return nil
}

// shardOf extracts the shard index from a "job-s<i>-<n>" id.
func shardOf(id string) string {
	rest, ok := strings.CutPrefix(id, "job-s")
	if !ok {
		return ""
	}
	i, _, _ := strings.Cut(rest, "-")
	return i
}

// traceLayers derives the service's per-layer metrics from the open
// loop: client-side spans per op and /proc counters of approxd. The
// daemon is observed only from outside, so tracing adds nothing to
// the measured work and trace.overhead_ratio is 1.
func (st *svcState) traceLayers(rep *report, ph *loadPhase) {
	l := rep.layers
	spans := &spanLog{}
	var submit, queue, run, result, lag []float64
	var frames, byteCount, decode float64
	perShard := map[string]int{}
	rejected := 0
	ok := 0
	for i, r := range ph.ops {
		if r.err != nil {
			if r.rejected {
				rejected++
			}
			continue
		}
		ok++
		root := spans.add(span{kind: spanOp, op: int32(i), parent: -1, start: r.due, end: r.done})
		spans.add(span{kind: spanSubmit, op: int32(i), parent: root, start: r.sent, end: r.ack})
		spans.add(span{kind: spanQueue, op: int32(i), parent: root, start: r.ack, end: r.first})
		spans.add(span{kind: spanRun, op: int32(i), parent: root, start: r.first, end: r.terminal})
		spans.add(span{kind: spanResult, op: int32(i), parent: root, start: r.terminal, end: r.done})
		submit = append(submit, float64(r.ack-r.due)/1e6)
		queue = append(queue, float64(r.first-r.ack)/1e6)
		run = append(run, float64(r.terminal-r.first)/1e6)
		result = append(result, float64(r.done-r.terminal)/1e6)
		lag = append(lag, float64(r.sent-r.due)/1e6)
		frames += float64(r.frames)
		byteCount += float64(r.bytes)
		decode += float64(r.decodeNs) / 1e9
		perShard[shardOf(r.id)]++
	}
	n := float64(max(ok, 1))
	l["jobserver.submit_ms_p50"] = median(submit)
	l["jobserver.submit_ms_p99"] = quantile(submit, 0.99)
	l["jobserver.queue_ms_p50"] = median(queue)
	l["jobserver.queue_ms_p99"] = quantile(queue, 0.99)
	l["jobserver.run_ms_p50"] = median(run)
	l["jobserver.run_ms_p99"] = quantile(run, 0.99)
	l["jobserver.result_ms_p50"] = median(result)
	l["jobserver.cpu_ms_per_op"] = float64(ph.cpuNs) / 1e6 / n
	l["jobserver.rejected"] = float64(rejected)
	l["jobserver.journal_bytes_per_op"] = float64(ph.journalBytes) / n
	if ph.syscallsOK {
		l["jobserver.write_syscalls_per_op"] = ph.writeSyscalls / n
	} else {
		rep.notes["jobserver.write_syscalls_per_op"] = "/proc/<pid>/io not readable on this host"
	}
	l["wire.frames_per_op"] = frames / n
	l["wire.bytes_per_op"] = byteCount / n
	l["wire.decode_s"] = decode / n
	maxShard, total := 0, 0
	for _, c := range perShard {
		maxShard = max(maxShard, c)
		total += c
	}
	if len(perShard) > 0 {
		l["ring.shard_skew"] = float64(maxShard) / (float64(total) / 2)
	}
	l["loadgen.lag_ms_p99"] = quantile(lag, 0.99)
	l["jobserver.complete_ms_p99"] = quantile(completeMs(ph.ops), 0.99)
	l["trace.overhead_ratio"] = 1
	rep.spans = spans
	l["trace.spans"] = float64(len(spans.spans))
}
