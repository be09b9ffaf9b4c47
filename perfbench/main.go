// Command perfbench is the repository benchmark. It runs one of four
// workloads — sweep, scale, stream, service — for a fixed wall-clock
// budget, checks every output against an exact reference computed in
// set-up, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer split measured by wrapping the program's public extension
// points). run.sh builds it and approxd from source and is the entry
// point:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness gate
// prints correct=false and exits 1; an error that prevents measuring
// prints no result and exits 1. README.md describes the workloads and
// the metric → layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// epoch is the process's time origin: setup_s's first sample and every
// span timestamp are measured from it.
var epoch = time.Now()

// nowNs is the monotonic time since epoch, in nanoseconds.
func nowNs() int64 { return int64(time.Since(epoch)) }

// metricDef is one metric of the catalogue. Bound applies to
// end-to-end metrics only: the share of the parent's median by which
// the metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is reported by every workload with --trace 0. "op" is the
// workload's unit of work: a job (sweep, scale), a closed window
// (stream), a submit→watch→result round trip (service).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"rel_err", "fraction", "lower", 0.2},
	{"ci_halfwidth", "fraction", "lower", 0.15},
	{"ci_coverage", "fraction", "higher", 0.1},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer is reported by every workload with --trace 1. A layer a
// workload does not pass through reports 0 (README.md lists which
// workload exercises which layer).
var perLayer = []metricDef{
	{Name: "approx.read_s", Unit: "s/op"},
	{Name: "dfs.bytes_read", Unit: "B/op"},
	{Name: "approx.items_scanned", Unit: "count/op"},
	{Name: "approx.items_sampled", Unit: "count/op"},
	{Name: "approx.sample_yield", Unit: "fraction"},
	{Name: "approx.keys_missed", Unit: "count/op"},
	{Name: "approx.controller_s", Unit: "s/op"},
	{Name: "approx.controller_calls", Unit: "count/op"},
	{Name: "apps.map_s", Unit: "s/op"},
	{Name: "mapreduce.task_setup_s", Unit: "s/op"},
	{Name: "mapreduce.tasks_run", Unit: "count/op"},
	{Name: "mapreduce.emit_s", Unit: "s/op"},
	{Name: "mapreduce.emits", Unit: "count/op"},
	{Name: "mapreduce.reduce_s", Unit: "s/op"},
	{Name: "mapreduce.pairs_shuffled", Unit: "count/op"},
	{Name: "mapreduce.shuffle_bytes", Unit: "B/op"},
	{Name: "mapreduce.sched_s", Unit: "s/op"},
	{Name: "mapreduce.maps_completed", Unit: "count/op"},
	{Name: "mapreduce.maps_dropped", Unit: "count/op"},
	{Name: "mapreduce.maps_killed", Unit: "count/op"},
	{Name: "mapreduce.launch_yield", Unit: "fraction"},
	{Name: "mapreduce.pool_util", Unit: "fraction"},
	{Name: "cluster.events", Unit: "count/op"},
	{Name: "go.gc_cpu_s", Unit: "s/op"},
	{Name: "go.mallocs_per_op", Unit: "count/op"},
	{Name: "go.alloc_kb_per_op", Unit: "KiB/op"},
	{Name: "workload.source_s", Unit: "s/op"},
	{Name: "stream.ingest_s", Unit: "s/op"},
	{Name: "stream.stratify_s", Unit: "s/op"},
	{Name: "stream.value_s", Unit: "s/op"},
	{Name: "stream.close_ms_p99", Unit: "ms"},
	{Name: "stream.window_ms_p99", Unit: "ms"},
	{Name: "stream.records", Unit: "count/op"},
	{Name: "stream.records_per_s", Unit: "1/s"},
	{Name: "stream.folded", Unit: "count/op"},
	{Name: "stream.sampled", Unit: "count/op"},
	{Name: "stream.sample_ratio", Unit: "fraction"},
	{Name: "stream.keep_frac_mean", Unit: "fraction"},
	{Name: "stream.degraded_windows", Unit: "fraction"},
	{Name: "jobserver.submit_ms_p50", Unit: "ms"},
	{Name: "jobserver.submit_ms_p99", Unit: "ms"},
	{Name: "jobserver.queue_ms_p50", Unit: "ms"},
	{Name: "jobserver.queue_ms_p99", Unit: "ms"},
	{Name: "jobserver.run_ms_p50", Unit: "ms"},
	{Name: "jobserver.run_ms_p99", Unit: "ms"},
	{Name: "jobserver.result_ms_p50", Unit: "ms"},
	{Name: "jobserver.complete_ms_p99", Unit: "ms"},
	{Name: "jobserver.cpu_ms_per_op", Unit: "ms"},
	{Name: "jobserver.rejected", Unit: "count"},
	{Name: "jobserver.journal_bytes_per_op", Unit: "B/op"},
	{Name: "jobserver.write_syscalls_per_op", Unit: "count/op"},
	{Name: "wire.frames_per_op", Unit: "count/op"},
	{Name: "wire.bytes_per_op", Unit: "B/op"},
	{Name: "wire.decode_s", Unit: "s/op"},
	{Name: "ring.shard_skew", Unit: "ratio"},
	{Name: "loadgen.lag_ms_p99", Unit: "ms"},
	{Name: "trace.overhead_ratio", Unit: "ratio"},
	{Name: "trace.spans", Unit: "count"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*report, error){
	"sweep":   runSweep,
	"scale":   runScale,
	"stream":  runStream,
	"service": runService,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // tiny inputs (self-tests)
	approxd  string // approxd binary (service)
	outDir   string // result files, span dumps, daemon scratch
	workers  int    // Job.Workers / pool sizes: nproc
	setups   int    // set-up repetitions; setup_s is their median
	steal    *stealClock
}

// report is what a workload measured.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	gates     []string // failed correctness gates
	layers    map[string]float64
	spans     *spanLog
	notes     map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, layers: map[string]float64{}, notes: map[string]any{}}
}

// gate records a failed correctness check when ok is false.
func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

// fillZeros sets every catalogue metric the workload did not touch to
// 0, so each result carries the whole catalogue.
func (r *report) fillZeros(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.metrics[d.Name]; !ok {
			r.metrics[d.Name] = 0
		}
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	cfg := &config{setups: 3}
	flag.StringVar(&cfg.workload, "workload", "", "sweep | scale | stream | service")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: inputs are generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured wall seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.approxd, "approxd", "", "approxd binary for the service workload")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for result files and scratch")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.workers = runtime.NumCPU()
	if err := run(cfg); err != nil {
		if !errors.Is(err, errGate) {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		os.Exit(1)
	}
}

// errGate marks a run whose result was printed with correct=false.
var errGate = errors.New("correctness gate failed")

// run measures one workload and prints its result line.
func run(cfg *config) error {
	line, rep, err := measure(cfg)
	if err != nil {
		return err
	}
	for _, g := range rep.gates {
		fmt.Fprintf(os.Stderr, "perfbench: gate failed: %s\n", g)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return errGate
	}
	return nil
}

// measure runs the workload and assembles its result line: every
// end-to-end metric, or with cfg.trace every per-layer one.
func measure(cfg *config) (resultLine, *report, error) {
	var line resultLine
	runner, ok := workloads[cfg.workload]
	if !ok {
		return line, nil, fmt.Errorf("unknown workload %q (sweep, scale, stream, service)", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.setups < 1 {
		return line, nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return line, nil, err
	}
	cfg.steal = startStealClock()
	rep, err := runner(cfg)
	cfg.steal.close()
	if err != nil {
		return line, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.notes["host_steal_s"] = cfg.steal.at(nowNs()) - cfg.steal.at(0)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for k, v := range rep.layers {
			rep.metrics[k] = v
		}
		rep.fillZeros(perLayer)
	}
	line = resultLine{
		Correct:   len(rep.gates) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return line, nil, fmt.Errorf("%s: metric %s missing or not finite (%v)", cfg.workload, d.Name, v)
		}
		line.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if line.Attempted < 1 {
		return line, nil, fmt.Errorf("%s: no operation attempted", cfg.workload)
	}
	return line, rep, writeResultFile(cfg, rep, line)
}

// hostFacts describes the machine a result was measured on.
func hostFacts() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        model,
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// writeResultFile stores the full result (host facts, gates, every
// measured value, layer self times) next to the span dump.
func writeResultFile(cfg *config, rep *report, line resultLine) error {
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-%s", cfg.workload, cfg.seed, mode))
	all := map[string]float64{}
	for k, v := range rep.metrics {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			all[k] = v
		}
	}
	doc := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"host":     hostFacts(),
		"result":   line,
		"all":      all,
		"gates":    rep.gates,
		"notes":    rep.notes,
	}
	if rep.spans != nil {
		doc["self_s"] = rep.spans.selfTimes()
		if err := rep.spans.write(base + ".spans.tsv.gz"); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", b, 0o644)
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeSetups runs set-up cfg.setups times and keeps the last state;
// setup_s is the median duration, the first one measured from process
// start. discard (may be nil) releases each earlier state between
// the timed intervals, so tearing one down is not counted as setting
// the next one up.
func timeSetups[T any](cfg *config, rep *report, setup func() (T, error), discard func(T)) (T, error) {
	var st T
	var durs, raw []float64
	start := int64(0)
	for i := 0; i < cfg.setups; i++ {
		var err error
		st, err = setup()
		if err != nil {
			return st, err
		}
		end := nowNs()
		secs := float64(end-start) / 1e9
		raw = append(raw, secs)
		if cfg.steal != nil {
			secs *= cfg.steal.netFactor(start, end)
		}
		durs = append(durs, secs)
		if discard != nil && i < cfg.setups-1 {
			discard(st)
		}
		start = nowNs()
	}
	rep.notes["setup_s_raw_wall"] = raw
	rep.metrics["setup_s"] = median(durs)
	rep.notes["setup_s_all"] = durs
	return st, nil
}
