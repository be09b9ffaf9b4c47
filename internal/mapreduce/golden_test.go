package mapreduce

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"approxhadoop/internal/dfs"
)

// goldenDigests pins the output of every golden scenario by its
// goldenDigest. A change to any estimate, counter,
// energy figure or scheduling event changes a digest. A PR that changes
// outputs on purpose re-records the table and declares the diff.
var goldenDigests = map[string]string{
	"approx-speculative":    "340e0c3f4df8473c1000280fc659c4f0cca708c1a89e5457960320eced619dbb",
	"combine":               "12243a0d096b52fd515b809e7e2b7512f5d5ebbdc47d9186ccabfdd03c3590ab",
	"faults-degrade":        "aa33d1a541e950c2625ced04f5ae124264d97d6e1177cfdbee316c46fb2f4473",
	"generated-blocks":      "499f2eb20e6eb933c7c9a7f04150e3d32bb50babdaa96e391237026ebf7586e8",
	"precise":               "d0154c3ba7a11094d413a75b25d36175fd75a07f03e821926e13f719ccbd44e0",
	"straggler-speculation": "1b8ab73faf44af43ddba8130abc83c58a11899d2862cd1315d8d8ff1b821c5e8",
}

// goldenDigest hashes a run the way the determinism gates compare
// runs: the %+v form of the Result, every estimate at full precision
// (Estimate's String rounds to six digits) and every trace event with
// all of its fields (Event's String rounds the time).
func goldenDigest(res *Result, events []Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", *res)
	for _, o := range res.Outputs {
		fmt.Fprintf(&b, "%q %v %v %v\n", o.Key, o.Est.Value, o.Est.Err, o.Est.Conf)
	}
	for _, e := range events {
		fmt.Fprintf(&b, "%#v\n", e)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// goldenScenarios covers every data plane surface: raw and combined
// emitters, byte-backed and generator-backed blocks, several reduce
// partitions, and mid-stream state (sampling, drops, speculation,
// faults) through the pool scenarios.
func goldenScenarios(t *testing.T) []poolScenario {
	t.Helper()
	return append(poolScenarios(t),
		poolScenario{"combine", func(t *testing.T) *Job {
			input, _ := wordCountInput(t, 96)
			return &Job{
				Name:      "equiv-combine",
				Input:     input,
				NewMapper: wordCountMapper,
				NewReduce: func(int) ReduceLogic { return SumReduce() },
				Reduces:   3,
				Combine:   true,
				Seed:      31,
			}
		}},
		poolScenario{"generated-blocks", func(t *testing.T) *Job {
			gen := func(idx int, r dfs.RandSource, w io.Writer) error {
				for i := 0; i < 120; i++ {
					if _, err := fmt.Fprintf(w, "k%d %d\n", r.Int63()%7, r.Int63()%5); err != nil {
						return err
					}
				}
				return nil
			}
			return &Job{
				Name:      "equiv-generated",
				Input:     dfs.GeneratedFile("gen.txt", 8, 5, 0, 120, gen),
				NewMapper: wordCountMapper,
				NewReduce: func(int) ReduceLogic { return SumReduce() },
				Reduces:   2,
				Seed:      13,
			}
		}},
	)
}

// TestGoldenDigests is the data plane's byte-identity gate: each
// scenario must reproduce its recorded digest exactly. On a mismatch
// the new digest is printed; there is no update flag.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; the compiler may fuse multiply-adds on %s, which changes float bits", runtime.GOARCH)
	}
	seen := map[string]bool{}
	for _, sc := range goldenScenarios(t) {
		seen[sc.name] = true
		t.Run(sc.name, func(t *testing.T) {
			job := sc.build(t)
			var events []Event
			job.Trace = func(e Event) { events = append(events, e) }
			res, err := Run(testEngine(), job)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, goldenDigests[sc.name], goldenDigest(res, events))
		})
	}
	for name := range goldenDigests {
		if !seen[name] {
			t.Errorf("recorded digest %q has no scenario", name)
		}
	}
}

// checkDigest compares a run's digest with the recorded one, printing
// the new digest on a mismatch.
func checkDigest(t *testing.T, want, got string) {
	t.Helper()
	if want == "" {
		t.Errorf("no recorded digest; this run hashes to %q", got)
	} else if got != want {
		t.Errorf("digest %q, recorded %q", got, want)
	}
}
