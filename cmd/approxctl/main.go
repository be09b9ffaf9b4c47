// Command approxctl is the client and load generator for approxd, the
// multi-tenant ApproxHadoop job service.
//
// Usage:
//
//	approxctl [-addr URL] <command> [flags]
//
//	approxctl submit -app total-size -controller static -sample 0.25
//	approxctl submit -app clients -key billing-2026-08  # idempotent submit
//	approxctl status                 # list all jobs
//	approxctl status job-0000        # one job
//	approxctl watch job-0000         # follow the early-result stream
//	approxctl result job-0000
//	approxctl await job-0000         # block until terminal, fail unless done
//	approxctl verify job-0000        # served result must be byte-identical
//	                                 # to a direct local run of its spec
//	approxctl cancel job-0000
//	approxctl stats
//	approxctl replay -n 50 -seed 42  # run a seeded trace via /v1/replay
//	approxctl loadgen -n 20 -seed 7  # hammer a live daemon concurrently
//	approxctl smoke -n 6 -seed 3     # end-to-end check: streamed estimates
//	                                 # converge to the final result, and the
//	                                 # final matches a direct local run
//
// Transient failures retry with seeded exponential backoff (-retries,
// -retry-seed): GETs and cancels always, submissions only when they
// carry an idempotency key (-key) — a keyed retry can never double-run
// a job, even across a daemon crash and restart, because approxd
// journals the key with the spec. Interrupted streams reconnect and
// resume from the last seen sequence number.
//
// smoke and verify exit nonzero on any divergence; CI runs them
// against freshly started (and, for the chaos job, kill -9'd and
// restarted) approxd instances.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"time"

	"approxhadoop/internal/jobserver"
	"approxhadoop/internal/loadgen"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/wire"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: approxctl [-addr URL] [-retries N] {submit|status|result|await|verify|cancel|watch|stats|replay|loadgen|smoke} [flags]")
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7070", "approxd base URL")
	retries := flag.Int("retries", 4, "retry budget for transient failures (connection errors, 429/503)")
	retrySeed := flag.Int64("retry-seed", 1, "seed for backoff jitter, so retry schedules are reproducible")
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	c := &client{base: *addr, retries: *retries, rng: stats.NewRand(*retrySeed)}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(c, args)
	case "status":
		err = cmdStatus(c, args)
	case "result":
		err = cmdResult(c, args)
	case "await":
		err = cmdAwait(c, args)
	case "verify":
		err = cmdVerify(c, args)
	case "cancel":
		err = cmdCancel(c, args)
	case "watch":
		err = cmdWatch(c, args)
	case "stats":
		err = cmdStats(c)
	case "replay":
		err = cmdReplay(c, args)
	case "loadgen":
		err = cmdLoadgen(c, args)
	case "smoke":
		err = cmdSmoke(c, args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "approxctl: %v\n", err)
		os.Exit(1)
	}
}

// client is a JSON-over-HTTP wrapper around the approxd API with
// seeded-backoff retries for transient failures.
type client struct {
	base    string
	retries int

	// rng drives backoff jitter; loadgen/smoke retry from many
	// goroutines, so draws are mutex-guarded.
	mu  sync.Mutex
	rng *rand.Rand
}

// apiError is the daemon's {"error": ...} payload with its HTTP status
// and any Retry-After hint.
type apiError struct {
	Code       int
	Msg        string
	RetryAfter time.Duration
}

func (e *apiError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Code, e.Msg) }

// drainClose discards a response's unread body and closes it, so the
// keep-alive connection is reusable. Errors are reported to stderr —
// there is no caller decision to change, but they should not vanish.
// The drain is bounded: error paths may abandon a still-streaming body,
// and reading it to completion could mean waiting out the whole job.
func drainClose(resp *http.Response) {
	if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)); err != nil {
		fmt.Fprintf(os.Stderr, "approxctl: draining response body: %v\n", err)
	}
	if err := resp.Body.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "approxctl: closing response body: %v\n", err)
	}
}

// retriable reports whether err is worth retrying: connection-level
// failures (the daemon may be mid-restart) and explicit backpressure
// (429 queue-full, 503 draining), never other API errors — a 400 or
// 404 will not improve with patience.
func retriable(err error) bool {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Code == http.StatusTooManyRequests || ae.Code == http.StatusServiceUnavailable
	}
	return err != nil
}

// backoff returns the pause before retry `attempt`: exponential from
// 50 ms capped at 2 s, scaled by seeded jitter in [0.5, 1.0], and
// floored by any server-provided Retry-After.
func (c *client) backoff(attempt int, err error) time.Duration {
	d := 50 * time.Millisecond
	for i := 0; i < attempt && d < 2*time.Second; i++ {
		d *= 2
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	c.mu.Lock()
	jitter := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	var ae *apiError
	if errors.As(err, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
	}
	return d
}

func (c *client) do(method, path string, in, out any) error {
	// GETs and DELETEs (cancel) are idempotent by construction; POSTs
	// must opt in via doRetriable.
	return c.doRetry(method, path, in, out, method != http.MethodPost)
}

func (c *client) doRetry(method, path string, in, out any, canRetry bool) error {
	for attempt := 0; ; attempt++ {
		err := c.doOnce(method, path, in, out)
		if err == nil || !canRetry || attempt >= c.retries || !retriable(err) {
			return err
		}
		time.Sleep(c.backoff(attempt, err))
	}
}

func (c *client) doOnce(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode >= 400 {
		return apiErrorFrom(resp)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// apiErrorFrom builds an apiError from an error response, tolerating
// non-JSON bodies (a bare status code is an acceptable fallback).
func apiErrorFrom(resp *http.Response) *apiError {
	ae := &apiError{Code: resp.StatusCode}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&msg); err == nil {
		ae.Msg = msg.Error
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	return ae
}

func (c *client) get(path string, out any) error { return c.do(http.MethodGet, path, nil, out) }
func (c *client) post(path string, in, out any) error {
	return c.do(http.MethodPost, path, in, out)
}

// submit POSTs one spec. Keyed submissions retry freely — the daemon
// deduplicates by the journaled idempotency key, so a retry that races
// a crash can at worst be answered with the original job's id.
func (c *client) submit(spec jobserver.JobSpec) (id string, held int, err error) {
	var resp struct {
		ID   string `json:"id"`
		Held int    `json:"held"`
	}
	err = c.doRetry(http.MethodPost, "/v1/jobs", spec, &resp, spec.IdempotencyKey != "")
	return resp.ID, resp.Held, err
}

// specFlags registers the JobSpec surface on fs and returns a builder.
func specFlags(fs *flag.FlagSet) func() jobserver.JobSpec {
	var s jobserver.JobSpec
	fs.StringVar(&s.Name, "name", "", "job name (default <app>-<seed>)")
	fs.StringVar(&s.App, "app", "total-size", "catalog application: "+fmt.Sprint(jobserver.Apps()))
	fs.IntVar(&s.Blocks, "blocks", 0, "input blocks == map tasks (default 48)")
	fs.IntVar(&s.LinesPerBlock, "lines", 0, "lines per block (default 200)")
	fs.Int64Var(&s.Seed, "seed", 1, "input/sampling seed")
	fs.Float64Var(&s.Weight, "weight", 0, "fair-share weight (default 1)")
	fs.StringVar(&s.Controller, "controller", "", "precise | static | target | deadline")
	fs.Float64Var(&s.SampleRatio, "sample", 0, "static: input sampling ratio (0,1]")
	fs.Float64Var(&s.DropRatio, "drop", 0, "static: map-task dropping ratio [0,1)")
	fs.Float64Var(&s.Target, "target", 0, "target: relative error bound")
	fs.Float64Var(&s.Deadline, "deadline", 0, "deadline: SLO in virtual seconds")
	fs.BoolVar(&s.BestEffort, "best-effort", false, "deadline: degrade instead of failing on overrun")
	fs.StringVar(&s.IdempotencyKey, "key", "", "idempotency key: duplicate submissions (and blind retries) return the original job")
	fs.StringVar(&s.Tenant, "tenant", "", "tenant identity: placement key on a sharded daemon, quota subject")
	return func() jobserver.JobSpec { return s }
}

func cmdSubmit(c *client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	spec := specFlags(fs)
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)
	id, held, err := c.submit(spec())
	if err != nil {
		return err
	}
	if id == "" {
		fmt.Printf("held (%d parked; POST /v1/release to run)\n", held)
		return nil
	}
	fmt.Println(id)
	return nil
}

func printState(st jobserver.WireState) {
	line := fmt.Sprintf("%-9s %-28s %-9s submit@%.1f", st.ID, st.Spec.Name, st.Status, st.SubmitVT)
	if st.Status.Terminal() {
		line += fmt.Sprintf(" end@%.1f", st.EndVT)
	}
	if st.Err != "" {
		line += "  " + st.Err
	}
	fmt.Println(line)
}

func cmdStatus(c *client, args []string) error {
	if len(args) == 0 {
		var states []jobserver.WireState
		if err := c.get("/v1/jobs", &states); err != nil {
			return err
		}
		for _, st := range states {
			printState(st)
		}
		return nil
	}
	var st jobserver.WireState
	if err := c.get("/v1/jobs/"+args[0], &st); err != nil {
		return err
	}
	printState(st)
	return nil
}

func printResult(res jobserver.WireResult) {
	fmt.Printf("%s: runtime %.2f s, energy %.2f Wh, %d/%d maps (%d dropped), %d waves\n",
		res.Job, res.Runtime, res.EnergyWh,
		res.Counters.MapsCompleted, res.Counters.MapsTotal,
		res.Counters.MapsDropped, res.Counters.Waves)
	outs := append([]jobserver.WireEstimate(nil), res.Outputs...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Value > outs[j].Value })
	if len(outs) > 15 {
		outs = outs[:15]
	}
	for _, o := range outs {
		switch {
		case o.Exact:
			fmt.Printf("  %-24s %14.1f (exact)\n", o.Key, o.Value)
		case o.Unbounded:
			fmt.Printf("  %-24s %14.1f (unbounded)\n", o.Key, o.Value)
		default:
			fmt.Printf("  %-24s %14.1f ± %-12.1f (%.0f%% conf)\n", o.Key, o.Value, o.Epsilon, o.Confidence*100)
		}
	}
}

func cmdResult(c *client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: approxctl result <id>")
	}
	var res jobserver.WireResult
	if err := c.get("/v1/jobs/"+args[0]+"/result", &res); err != nil {
		return err
	}
	printResult(res)
	return nil
}

// cmdAwait blocks until the job is terminal and fails unless it is
// done — the scriptable "wait for my result" primitive the CI chaos
// job leans on across a daemon restart (GET polls retry through the
// outage automatically).
func cmdAwait(c *client, args []string) error {
	fs := flag.NewFlagSet("await", flag.ExitOnError)
	timeout := fs.Duration("timeout", 2*time.Minute, "wall-clock budget")
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: approxctl await [-timeout d] <id>")
	}
	st, err := c.waitTerminal(fs.Arg(0), time.Now().Add(*timeout))
	if err != nil {
		return err
	}
	printState(st)
	if st.Status != jobserver.StatusDone {
		return fmt.Errorf("job %s finished %s: %s", st.ID, st.Status, st.Err)
	}
	return nil
}

// directOutputs runs a spec to completion on a private in-process
// cluster and returns its wire-form outputs — the ground truth every
// served result is compared against.
func directOutputs(spec jobserver.JobSpec) ([]jobserver.WireEstimate, error) {
	job, err := spec.Build(1)
	if err != nil {
		return nil, err
	}
	res, err := mapreduce.Run(jobserver.New(jobserver.Config{SnapshotEvery: -1}).Engine(), job)
	if err != nil {
		return nil, fmt.Errorf("direct run of %s: %w", spec.Name, err)
	}
	return jobserver.WireEstimates(res.Outputs), nil
}

// cmdVerify re-executes each job's served spec locally and requires
// the served outputs to be byte-identical — (spec, seed) runs are
// bit-exact regardless of scheduling, so this holds even for results
// recovered from the journal after a kill -9. This is the client half
// of the chaos gate.
func cmdVerify(c *client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: approxctl verify <id>...")
	}
	for _, id := range args {
		var st jobserver.WireState
		if err := c.get("/v1/jobs/"+id, &st); err != nil {
			return err
		}
		if st.Status != jobserver.StatusDone || st.Result == nil {
			return fmt.Errorf("job %s is %s, nothing to verify: %s", id, st.Status, st.Err)
		}
		want, err := directOutputs(st.Spec)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(st.Result.Outputs, want) {
			return fmt.Errorf("job %s (%s): served outputs NOT byte-identical to a direct run of its spec", id, st.Spec.Name)
		}
		fmt.Printf("verified %s (%s): %d keys byte-identical to direct run\n", id, st.Spec.Name, len(st.Result.Outputs))
	}
	return nil
}

func cmdCancel(c *client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: approxctl cancel <id>")
	}
	if err := c.do(http.MethodDelete, "/v1/jobs/"+args[0], nil, nil); err != nil {
		return err
	}
	fmt.Println("canceled")
	return nil
}

// callerErr wraps an error returned by a stream callback, so the
// reconnect loop can tell "the caller aborted" from "the transport
// died" — only the latter is retried.
type callerErr struct{ err error }

func (e callerErr) Error() string { return e.err.Error() }

// streamFrames follows a job's JSONL stream, invoking fn per frame.
// A dropped connection — including a daemon crash-and-restart, where
// the recovered job re-emits the same deterministic snapshots —
// reconnects with ?from=<lastSeq+1> and resumes without duplicating
// frames. Any frame of progress refills the retry budget.
func (c *client) streamFrames(id string, fn func(jobserver.WireFrame) error) error {
	return c.streamLoop(id, false, fn)
}

// streamFramesBinary is streamFrames over the negotiated binary frame
// format — same resume contract, length-prefixed frames instead of
// JSON lines.
func (c *client) streamFramesBinary(id string, fn func(jobserver.WireFrame) error) error {
	return c.streamLoop(id, true, fn)
}

func (c *client) streamLoop(id string, binary bool, fn func(jobserver.WireFrame) error) error {
	last := -1 // highest Seq seen
	sawTerminal := false
	for attempt := 0; ; attempt++ {
		err := c.streamOnce(id, last+1, binary, func(f jobserver.WireFrame) error {
			if f.Seq > last {
				last = f.Seq
			}
			if f.Status.Terminal() {
				sawTerminal = true
			}
			attempt = 0
			if err := fn(f); err != nil {
				return callerErr{err}
			}
			return nil
		})
		var ce callerErr
		if errors.As(err, &ce) {
			return ce.err
		}
		if err == nil {
			if sawTerminal {
				return nil
			}
			// A clean EOF without a terminal frame is a truncated
			// stream (e.g. the server died between frames); resume.
			err = fmt.Errorf("stream for %s ended before a terminal frame", id)
		}
		if attempt >= c.retries || !retriable(err) {
			return err
		}
		time.Sleep(c.backoff(attempt, err))
	}
}

// streamOnce runs one connection's worth of frames through fn.
func (c *client) streamOnce(id string, from int, binary bool, fn func(jobserver.WireFrame) error) error {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/stream?from="+strconv.Itoa(from), nil)
	if err != nil {
		return err
	}
	if binary {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return apiErrorFrom(resp)
	}
	if binary {
		br := bufio.NewReader(resp.Body)
		for {
			payload, err := wire.ReadFrame(br)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			wf, err := wire.DecodeJobFrame(payload)
			if err != nil {
				return err
			}
			if err := fn(jobserver.FrameFromWire(wf)); err != nil {
				return err
			}
		}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var f jobserver.WireFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("bad stream frame %q: %w", sc.Text(), err)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return sc.Err()
}

func cmdWatch(c *client, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	wireFmt := fs.Bool("wire", false, "negotiate the binary frame format instead of JSONL")
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: approxctl watch [-wire] <id>")
	}
	follow := c.streamFrames
	if *wireFmt {
		follow = c.streamFramesBinary
	}
	return follow(fs.Arg(0), func(f jobserver.WireFrame) error {
		// One line per snapshot: worst relative CI across keys, so the
		// narrowing is visible at a glance.
		worst := 0.0
		unbounded := false
		for _, e := range f.Estimates {
			if e.Exact {
				continue
			}
			if e.Unbounded {
				unbounded = true
				continue
			}
			if e.Value > 0 || e.Value < 0 {
				rel := e.Epsilon / e.Value
				if rel < 0 {
					rel = -rel
				}
				if worst < rel {
					worst = rel
				}
			}
		}
		tag := ""
		if f.Final {
			tag = " final"
		}
		if unbounded {
			fmt.Printf("t=%8.1f  %-9s keys=%d  worst-CI=unbounded%s\n", f.T, f.Status, len(f.Estimates), tag)
		} else {
			fmt.Printf("t=%8.1f  %-9s keys=%d  worst-CI=%.3f%%%s\n", f.T, f.Status, len(f.Estimates), worst*100, tag)
		}
		return nil
	})
}

func cmdStats(c *client) error {
	var st jobserver.Stats
	if err := c.get("/v1/stats", &st); err != nil {
		return err
	}
	fmt.Printf("policy %s, virtual time %.1f s, energy %.1f Wh\n", st.Policy, st.VirtualNow, st.EnergyWh)
	fmt.Printf("active %d, queued %d / submitted %d: done %d, failed %d, canceled %d, rejected %d\n",
		st.Active, st.Queued, st.Submitted, st.Done, st.Failed, st.Canceled, st.Rejected)
	fmt.Printf("cluster: %d map slots, %d reduce slots\n", st.MapSlots, st.ReduceSlots)
	return nil
}

func summarize(states []jobserver.WireState) {
	byStatus := map[jobserver.JobStatus]int{}
	for _, st := range states {
		byStatus[st.Status]++
		printState(st)
	}
	fmt.Printf("%d jobs:", len(states))
	for _, s := range []jobserver.JobStatus{jobserver.StatusDone, jobserver.StatusFailed,
		jobserver.StatusCanceled, jobserver.StatusRejected} {
		if byStatus[s] > 0 {
			fmt.Printf(" %d %s", byStatus[s], s)
		}
	}
	fmt.Println()
}

func cmdReplay(c *client, args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	n := fs.Int("n", 50, "jobs in the generated trace")
	seed := fs.Int64("seed", 42, "trace seed")
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)
	var states []jobserver.WireState
	if err := c.post("/v1/replay", jobserver.GenerateTrace(*n, *seed), &states); err != nil {
		return err
	}
	summarize(states)
	return nil
}

// cmdLoadgen drives the daemon with a closed-loop benchmark: -clients
// concurrent loops each run submit -> observe-terminal -> next until
// -n ops complete, and the report carries sustained QPS plus submit
// and completion latency percentiles. -watch follows each job's
// snapshot stream instead of polling (-wire negotiates the binary
// frame format); -max-p99 turns the run into a pass/fail gate for CI.
func cmdLoadgen(c *client, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	n := fs.Int("n", 20, "total jobs to pull through the closed loop")
	clients := fs.Int("clients", 4, "concurrent closed-loop clients")
	seed := fs.Int64("seed", 42, "spec sequence seed")
	tenants := fs.Int("tenants", 8, "distinct tenant identities (placement keys)")
	watch := fs.Bool("watch", false, "follow each job's snapshot stream to its terminal frame")
	wireFmt := fs.Bool("wire", false, "with -watch: negotiate the binary frame format")
	maxP99 := fs.Float64("max-p99", 0, "fail if completion p99 exceeds this many ms (0 = report only)")
	timeout := fs.Duration("timeout", time.Minute, "wall-clock budget per op")
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)

	rep := loadgen.RunClosedLoop(loadgen.Config{
		Base:    c.base,
		Clients: *clients,
		Ops:     *n,
		Seed:    *seed,
		Tenants: *tenants,
		Watch:   *watch,
		Binary:  *wireFmt,
		Timeout: *timeout,
	})
	fmt.Printf("loadgen: %d ops, %d clients, %.2f s wall, %.1f ops/s\n",
		rep.Ops, rep.Clients, rep.WallSecs, rep.QPS)
	fmt.Printf("  submit   p50 %.1f ms  p95 %.1f ms  p99 %.1f ms  max %.1f ms\n",
		rep.SubmitP50, rep.SubmitP95, rep.SubmitP99, rep.SubmitMax)
	fmt.Printf("  complete p50 %.1f ms  p95 %.1f ms  p99 %.1f ms  max %.1f ms\n",
		rep.CompleteP50, rep.CompleteP95, rep.CompleteP99, rep.CompleteMax)
	if rep.Frames > 0 {
		fmt.Printf("  streamed %d frames, %d bytes\n", rep.Frames, rep.StreamBytes)
	}
	if rep.Rejected > 0 {
		fmt.Printf("  %d submissions bounced (429/503) and were retried\n", rep.Rejected)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("loadgen: %d of %d ops failed", rep.Errors, rep.Errors+rep.Ops)
	}
	if rep.Ops == 0 {
		return errors.New("loadgen: no ops completed")
	}
	if *maxP99 > 0 && rep.CompleteP99 > *maxP99 {
		return fmt.Errorf("loadgen: completion p99 %.1f ms exceeds bound %.1f ms", rep.CompleteP99, *maxP99)
	}
	return nil
}

func (c *client) waitTerminal(id string, deadline time.Time) (jobserver.WireState, error) {
	for {
		var st jobserver.WireState
		if err := c.get("/v1/jobs/"+id, &st); err != nil {
			return st, err
		}
		if st.Status.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s at deadline", id, st.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// cmdSmoke is the end-to-end service check CI runs against a live
// daemon: submit the trace concurrently, follow every job's stream,
// and require (a) the last streamed frame to be final and bitwise
// equal to the fetched result, and (b) the result's outputs to be
// bitwise equal to a direct in-process mapreduce.Run of the same spec.
// The second check is the service acceptance property end to end: the
// multi-tenant schedule may reorder waves, but per-job outputs depend
// only on (spec, seed).
func cmdSmoke(c *client, args []string) error {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	n := fs.Int("n", 6, "jobs to submit concurrently")
	seed := fs.Int64("seed", 3, "trace seed")
	timeout := fs.Duration("timeout", 2*time.Minute, "wall-clock budget")
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)

	trace := jobserver.GenerateTrace(*n, *seed)
	ids := make([]string, len(trace))
	var wg sync.WaitGroup
	var submitErr error
	var mu sync.Mutex
	for i, spec := range trace {
		i, spec := i, spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, _, err := c.submit(spec)
			if err != nil {
				mu.Lock()
				submitErr = fmt.Errorf("submit %s: %w", spec.Name, err)
				mu.Unlock()
				return
			}
			ids[i] = id
		}()
	}
	wg.Wait()
	if submitErr != nil {
		return submitErr
	}

	deadline := time.Now().Add(*timeout)
	for i, id := range ids {
		spec := trace[i]
		st, err := c.waitTerminal(id, deadline)
		if err != nil {
			return err
		}
		if st.Status != jobserver.StatusDone {
			return fmt.Errorf("job %s (%s): %s %s", id, spec.Name, st.Status, st.Err)
		}

		var res jobserver.WireResult
		if err := c.get("/v1/jobs/"+id+"/result", &res); err != nil {
			return err
		}

		// (a) The stream must converge to the final result: frames in
		// order, CI-bearing snapshots first, last frame final and equal.
		var frames []jobserver.WireFrame
		if err := c.streamFrames(id, func(f jobserver.WireFrame) error {
			frames = append(frames, f)
			return nil
		}); err != nil {
			return fmt.Errorf("job %s stream: %w", id, err)
		}
		if len(frames) == 0 {
			return fmt.Errorf("job %s: empty stream", id)
		}
		last := frames[len(frames)-1]
		if !last.Final {
			return fmt.Errorf("job %s: last stream frame not final", id)
		}
		if !reflect.DeepEqual(last.Estimates, res.Outputs) {
			return fmt.Errorf("job %s: final stream frame diverges from result", id)
		}
		for j := 1; j < len(frames); j++ {
			if frames[j].T < frames[j-1].T {
				return fmt.Errorf("job %s: stream time went backwards (%g after %g)", id, frames[j].T, frames[j-1].T)
			}
		}

		// (b) The served outputs must agree with a direct run of the same
		// spec on a private cluster. Live submissions land at arbitrary
		// virtual times, so slot contention can permute the order map
		// outputs reach the estimator's accumulators — that moves sums by
		// an ulp or two, no more. Anything beyond rounding is a real bug.
		job, err := spec.Build(1)
		if err != nil {
			return err
		}
		direct, err := mapreduce.Run(jobserver.New(jobserver.Config{SnapshotEvery: -1}).Engine(), job)
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", spec.Name, err)
		}
		if err := outputsAgree(jobserver.WireEstimates(direct.Outputs), res.Outputs); err != nil {
			return fmt.Errorf("job %s (%s): served outputs diverge from direct run: %w", id, spec.Name, err)
		}
		fmt.Printf("ok %-28s %d snapshots, %d keys, runtime %.1f s\n",
			spec.Name, len(frames), len(res.Outputs), res.Runtime)
	}

	// (c) The deterministic path must be bit-exact: replaying the same
	// trace through /v1/replay equals a local in-process Replay under
	// the daemon's policy. JSON float64 encoding round-trips exactly,
	// so DeepEqual over the wire forms is a bitwise comparison.
	var st jobserver.Stats
	if err := c.get("/v1/stats", &st); err != nil {
		return err
	}
	pol, err := jobserver.ParsePolicy(st.Policy)
	if err != nil {
		return err
	}
	var served []jobserver.WireState
	if err := c.post("/v1/replay", trace, &served); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	cfg := jobserver.Config{Policy: pol, MaxQueue: len(trace) + 1, SnapshotEvery: -1}
	local := jobserver.New(cfg).Replay(trace)
	if len(served) != len(local) {
		return fmt.Errorf("replay served %d states, local %d", len(served), len(local))
	}
	for i := range local {
		want, got := local[i], served[i]
		if got.Status != want.Status {
			return fmt.Errorf("replay job %s: served %s, local %s", want.Spec.Name, got.Status, want.Status)
		}
		if want.Result == nil || got.Result == nil {
			continue
		}
		if !reflect.DeepEqual(got.Result.Outputs, jobserver.WireEstimates(want.Result.Outputs)) {
			return fmt.Errorf("replay job %s: served outputs not byte-identical to local replay", want.Spec.Name)
		}
	}

	fmt.Printf("smoke ok: %d jobs served live and verified against direct runs; %d-job replay byte-identical\n",
		len(ids), len(trace))
	return nil
}

// outputsAgree compares two output sets key by key within relative
// tolerance 1e-9 (live-mode accumulation-order rounding is ~1 ulp).
func outputsAgree(want, got []jobserver.WireEstimate) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	within := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		scale := 1.0
		if b > scale {
			scale = b
		} else if -b > scale {
			scale = -b
		}
		return d <= 1e-9*scale
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Key != w.Key || g.Exact != w.Exact || g.Unbounded != w.Unbounded {
			return fmt.Errorf("key %d: got %s/exact=%v/unbounded=%v, want %s/exact=%v/unbounded=%v",
				i, g.Key, g.Exact, g.Unbounded, w.Key, w.Exact, w.Unbounded)
		}
		if !within(g.Value, w.Value) || (!w.Unbounded && !within(g.Epsilon, w.Epsilon)) {
			return fmt.Errorf("key %s: got %v±%v, want %v±%v", w.Key, g.Value, g.Epsilon, w.Value, w.Epsilon)
		}
	}
	return nil
}
