package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"approxhadoop/internal/analysis"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/vtime"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func (m *metricDef) UnmarshalJSON(b []byte) error {
	var v struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*m = metricDef{v.Name, v.Unit, v.Better, v.Bound}
	return nil
}

// TestCatalogueMatchesBenchmarkJSON: the metric names, units, bounds
// and workloads the program reports are exactly those BENCHMARK.json
// declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if f.EndToEnd[i] != d {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, program %+v", i, f.EndToEnd[i], d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := f.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json %s/%s, program %s/%s", i, got.Name, got.Unit, d.Name, d.Unit)
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %d workloads", names, len(workloads))
	}
}

// smokeConfig runs a workload at tiny size for a fraction of a second.
func smokeConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 3, seconds: 0.2, trace: trace, smoke: true,
		outDir: t.TempDir(), workers: 2, setups: 2}
}

// checkLine asserts a result line carries every catalogue metric with
// its unit and a finite value.
func checkLine(t *testing.T, line resultLine, defs []metricDef) {
	t.Helper()
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("result correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s: %+v (want unit %s)", d.Name, m, d.Unit)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks every metric name and unit and that all gates pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds approxd and runs every workload")
	}
	approxd := filepath.Join(t.TempDir(), "approxd")
	build := exec.Command("go", "build", "-o", approxd, "approxhadoop/cmd/approxd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building approxd: %v\n%s", err, out)
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w, trace)
			cfg.approxd = approxd
			line, rep, err := measure(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			checkLine(t, line, defs)
			if len(rep.gates) > 0 {
				t.Errorf("%s trace=%v: gates failed: %v", w, trace, rep.gates)
			}
		}
	}
}

// TestPerturbedReferenceTripsGate: a reference that disagrees with the
// program by one count fails both the recount and the exact-job gate.
func TestPerturbedReferenceTripsGate(t *testing.T) {
	cfg := smokeConfig(t, "sweep", false)
	p := sweepPlan(true)
	st, err := p.setup(cfg.seed, cfg.workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.check(st.input, st.refs); err != nil {
		t.Fatalf("unperturbed references fail the recount: %v", err)
	}
	for k := range st.refs["proj"] {
		st.refs["proj"][k]++
		break
	}
	if err := p.check(st.input, st.refs); err == nil {
		t.Error("recount accepted a perturbed reference")
	}
	rep := newReport()
	p.runRounds(cfg, st, rep, 0, 1, nil)
	tripped := false
	for _, g := range rep.gates {
		tripped = tripped || strings.Contains(g, "differ from the precise reference")
	}
	if !tripped {
		t.Errorf("exact-job gate did not trip; gates: %v", rep.gates)
	}
}

// TestProbeMeterMatchesDeterministic: the tracing meter charges exactly
// what vtime.Deterministic charges, so a traced job's outputs, counters
// and virtual runtime equal the untraced job's, for every round job.
func TestProbeMeterMatchesDeterministic(t *testing.T) {
	p := sweepPlan(true)
	st, err := p.setup(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j, bj := range p.round {
		plain := bj.build(st.input, jobSeed(5, 0, j))
		plain.Workers = 2
		want, err := mapreduce.Run(cluster.New(p.cluster), plain)
		if err != nil {
			t.Fatal(err)
		}
		traced := bj.build(st.input, jobSeed(5, 0, j))
		traced.Workers = 2
		newBatchProbe(2).install(traced)
		got, err := mapreduce.Run(cluster.New(p.cluster), traced)
		if err != nil {
			t.Fatal(err)
		}
		//lint:ignore nofloateq identical charges must give bit-identical virtual runtimes
		if digest(got) != digest(want) || got.Runtime != want.Runtime || got.RealSecs != want.RealSecs {
			t.Errorf("%s: traced run differs (runtime %v vs %v, charged %v vs %v)", bj.label, got.Runtime, want.Runtime, got.RealSecs, want.RealSecs)
		}
	}
	// Bracket by bracket, including forked children.
	det := vtime.NewDeterministic()
	pm := &probeMeter{det: vtime.NewDeterministic(), job: &jobProbe{}}
	child, detChild := pm.Fork(), vtime.Fork(det)
	for _, m := range [][2]vtime.Meter{{pm, det}, {child, detChild}} {
		for op := vtime.OpSetup; op <= vtime.OpReduce; op++ {
			m[0].Begin(op)
			m[1].Begin(op)
			m[0].Charge(3)
			m[1].Charge(3)
			//lint:ignore nofloateq the wrapper must return the deterministic charge bit for bit
			if a, b := m[0].End(op, 7, 99), m[1].End(op, 7, 99); a != b {
				t.Errorf("op %d: probe charged %v, deterministic %v", op, a, b)
			}
		}
	}
}

// TestLintClean runs the repository's approxlint suite over this
// module, as TestRepoClean does for the main module.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the module")
	}
	pkgs, err := (&analysis.Loader{Dir: ".", Tests: true}).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.RunWithOptions(pkgs, analysis.All(), analysis.Options{StaleIgnores: true}) {
		t.Errorf("%s", d)
	}
}
