package approx

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"approxhadoop/internal/mapreduce"
)

// goldenDigests pins the sampled sum job, with and without map-side
// combining, by its goldenDigest (the same rendering as the mapreduce
// and apps gates).
var goldenDigests = map[string]string{
	"sampling/combine=false": "ae4f1e50d6ff1c95bbcdf6e594f43962394ee2ab5368853bb54ed8b0b06dd164",
	"sampling/combine=true":  "abbf6dad200aba592f8ec4878a6e44c41ed5105623144acf548d0e233e17ebe2",
}

// goldenDigest hashes a run: the %+v form of the Result, every
// estimate at full precision and every trace event with all fields.
func goldenDigest(res *mapreduce.Result, events []mapreduce.Event) string {
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

// TestGoldenDigests gates the sampling reader and the multi-stage
// estimators: a sampled, dropping job over generated blocks must
// reproduce its recorded digest exactly. On a mismatch the new digest
// is printed; there is no update flag.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; the compiler may fuse multiply-adds on %s, which changes float bits", runtime.GOARCH)
	}
	seen := map[string]bool{}
	for _, combine := range []bool{false, true} {
		name := fmt.Sprintf("sampling/combine=%v", combine)
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			input, _ := countInput(16, 300, 9)
			job := sumJob(input, NewStatic(0.3, 0.1))
			job.Combine = combine
			var events []mapreduce.Event
			job.Trace = func(e mapreduce.Event) { events = append(events, e) }
			res, err := mapreduce.Run(approxEngine(), job)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, goldenDigests[name], goldenDigest(res, events))
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
