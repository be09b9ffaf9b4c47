package approx

import (
	"fmt"
	"io"
	"testing"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
)

// BenchmarkTargetErrorManyMaps runs a 10% target-error job over 6,570
// four-line blocks on the 60-node Atom cluster. Map work is trivial
// and about half the maps are dropped, so the time goes to the
// scheduler and the target-error planner, which the job consults at
// every launch and completion: a per-decision cost that grows with
// the task count shows up here first.
func BenchmarkTargetErrorManyMaps(b *testing.B) {
	const blocks, lines, keys = 6570, 4, 50
	gen := func(idx int, r dfs.RandSource, w io.Writer) error {
		for i := 0; i < lines; i++ {
			if _, err := fmt.Fprintf(w, "k%d %d\n", r.Int63()%keys, r.Int63()%9+1); err != nil {
				return err
			}
		}
		return nil
	}
	input := dfs.GeneratedFile("many-maps", blocks, 7, 0, lines, gen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mapreduce.Run(cluster.New(cluster.AtomConfig()), sumJob(input, &TargetError{Target: 0.1}))
		if err != nil {
			b.Fatal(err)
		}
		if res.Counters.MapsDropped == 0 {
			b.Fatal("expected the planner to drop maps")
		}
		b.ReportMetric(float64(res.Counters.MapsDropped), "dropped/op")
	}
}
