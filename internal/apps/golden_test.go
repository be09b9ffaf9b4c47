package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/workload"
)

// goldenDigests pins every batch application under each approximation
// mode, and every sketch application with and without its sketch plan,
// by its goldenDigest (the same rendering as the mapreduce and approx
// gates). The user-defined applications (KMeans, VideoEncoding) take no
// controller, so their four mode digests coincide.
var goldenDigests = map[string]string{
	"AttackFrequencies/dropped":         "1a1d4896e32346bca2ceba30b3f23daf93d601310981b3b09120bcb1b1c7b10b",
	"AttackFrequencies/precise":         "a01f00f58c4fe72d7fd42434f9e241285bbee94d8158e636c4e49187ea0f799d",
	"AttackFrequencies/sampled":         "8a96e6bede629636e067df00f29a0e134e7fc1bdba0c888bebbc9e9ede62894e",
	"AttackFrequencies/sampled+dropped": "18d4b3b9df7f46466ae61d6693309a77b8d542a448cff87fa1b721ce5d46d684",
	"AvgBytesPerLink/dropped":           "e2af29fa940c88e58c594815c780e744ac48bdc8b9d404c9774ecab7d81102fc",
	"AvgBytesPerLink/precise":           "c9290ebc263f3f174581c3aaa8a82ae223a2304f4eeee4966362107a4d3e609f",
	"AvgBytesPerLink/sampled":           "7fe755c5d02ae008b0bd51b309e4935390e5002016dc9260dc648ebff0ef3a7e",
	"AvgBytesPerLink/sampled+dropped":   "dd25116097464f7a5d7a70ca56fb42c9c9fb7d910f3d87c8c6ed9c0677f4f16c",
	"ClientBrowser/dropped":             "2d49b6469d510de169df1ba1b82601ef508698767bbf3819bccd71cdbd76a25e",
	"ClientBrowser/precise":             "159e462cf82291748d36ec1205f643352d254cbfdb5a99c6a0d2f13b12abd873",
	"ClientBrowser/sampled":             "878fd6a0d0646a8d43077b7b46cb2cd8d9049f4b1b9cf37db54533f5026b3d1b",
	"ClientBrowser/sampled+dropped":     "0d865b990484fc64d245fe3f9291ebf0f6c3268e5a473b68d68811fed21d470e",
	"Clients/dropped":                   "959116c6b86f65c88b842a3c83e0a13771851e3c45651ad665fffb092fb1e3b7",
	"Clients/precise":                   "338d24acf486254af870814d5f82074a01eb6f78b24173fa6358454b7f8d2fc2",
	"Clients/sampled":                   "d852231e02ca755e1b6ee6d92412c73933096a617dd9ce0f79012d293f3cbb6d",
	"Clients/sampled+dropped":           "9f6e805a106516685fbf816f8df7c03333720ce4d2697ecc691dfcd64b5ae9f7",
	"DCPlacement/dropped":               "39d37b6d248bbf23afe69d91623febaac7eb26354e8a90e37469ef1e8164b5b9",
	"DCPlacement/precise":               "526db4758b722a7c370bc9d8f9d98f4fb8e9eb02e012a5dce074541717c775dc",
	"DCPlacement/sampled":               "d30438dfb3ac28f7f3e4dd92c423222d7776b873889bdebaf0e61f09a814c0a2",
	"DCPlacement/sampled+dropped":       "5c8d74ccb4ec65abe78df4a5631b7ad9e1974a3062d75dfa6339cea0bab46737",
	"KMeans/dropped":                    "a0efcefed7b6a0f491dfe8ebfd2907231208544bc51d60d9806844220351a912",
	"KMeans/precise":                    "a0efcefed7b6a0f491dfe8ebfd2907231208544bc51d60d9806844220351a912",
	"KMeans/sampled":                    "a0efcefed7b6a0f491dfe8ebfd2907231208544bc51d60d9806844220351a912",
	"KMeans/sampled+dropped":            "a0efcefed7b6a0f491dfe8ebfd2907231208544bc51d60d9806844220351a912",
	"PagePopularity/dropped":            "76ce59d0b755a71193d472a2dc519ac2a7fac99d01c6c1491a50b81214d5a4fe",
	"PagePopularity/precise":            "500e06b13ca02b6b73fa56d60d5e53fef3e7c513b051417c4f10403243ad5658",
	"PagePopularity/sampled":            "cfd301d1f0a12bdf884a422a0e763d75bf6937a6fdf057061e9996e6956cbc1d",
	"PagePopularity/sampled+dropped":    "8471da6522de7f7c494a9250e18eabc69e06397d0de3d2b2108557bea1c73f88",
	"PageTraffic/dropped":               "4b043408715529e6818852f55748a515167dd2608d7132300e6872e7542d10f5",
	"PageTraffic/precise":               "ed937b85fc002ed9b752263db731bba4e10ddf26cf03535487a664222baaa528",
	"PageTraffic/sampled":               "f4e1c405c3d64dae53ed8cbf7948ad59ff7602d9c5de47624e2ad900b7836c27",
	"PageTraffic/sampled+dropped":       "5b9649330eda8f917890fd6b56785938ad0b1208e25e14f1c9b351097f942c51",
	"ProjectPopularity/dropped":         "0dd608445fdc0c5b4414ea03c064c438ff35afa56bff65aca0896f7edf1f9c53",
	"ProjectPopularity/precise":         "a3c85386585488b0cd9298305d201d43ed89b3164f4050f5849883a22112c0a7",
	"ProjectPopularity/sampled":         "9dea5df77200219445a8f1363dfa8a5c40549e710a560d17feecc0b10e62a98d",
	"ProjectPopularity/sampled+dropped": "03d01c2fc10b71519a9035ef53a12661754869f744bc13f493ae30874d916b3d",
	"RequestSize/dropped":               "7359e4528f73e4b7fa986c69ee6467f7ef4731cf87b2b2d79745a048d4a97b11",
	"RequestSize/precise":               "538e7692c6dfc6ea112d72dabd479486c95a92745e6ade40546b6c7a9ecaf791",
	"RequestSize/sampled":               "fca25d3acd827892fadcb18c55e250c35b9f972b957330f52d28500336cf4e62",
	"RequestSize/sampled+dropped":       "d9c198cd8b6683e524f5876a1b8f85faed2118622e3dfaf4bacb7f3b737216aa",
	"TotalSize/dropped":                 "86c223f51507efa82e54fcc24848a44695d588d39dc2182ce0ef3faae2f34c44",
	"TotalSize/precise":                 "f52786ee3666779555de1445ac6e4e13509d8f36ce22720ac822f84456ccc9e1",
	"TotalSize/sampled":                 "34abdf254eb588d4b5b008c46fd5e41ad64ca535d1a6cd5da3e2f4fa2a39b63d",
	"TotalSize/sampled+dropped":         "948d9677465393552626874ee89f4f61796f14f438d50d3ef5a4ff3b984ae7eb",
	"VideoEncoding/dropped":             "ddf6edb5140127a94d2e1ad7480c57e481c650a7a5a059a33bc87d3728cfa8e9",
	"VideoEncoding/precise":             "ddf6edb5140127a94d2e1ad7480c57e481c650a7a5a059a33bc87d3728cfa8e9",
	"VideoEncoding/sampled":             "ddf6edb5140127a94d2e1ad7480c57e481c650a7a5a059a33bc87d3728cfa8e9",
	"VideoEncoding/sampled+dropped":     "ddf6edb5140127a94d2e1ad7480c57e481c650a7a5a059a33bc87d3728cfa8e9",
	"WebRequestRate/dropped":            "abf38d3065b2088d9d6463e738f619886dbefd34097afdd5031a686a05605903",
	"WebRequestRate/precise":            "f62d9f87e765bce8fc043df1b4da1084a8c37ceff749ff96fe02dbe05dfda20a",
	"WebRequestRate/sampled":            "3edceaf0b7c18805d2308d3511c0a6cc4a9afdb1e002e2c5d1348e2f26f7d153",
	"WebRequestRate/sampled+dropped":    "d1727b384f103f61bfcdcbff6d81fe30f76187c1ee9246ae32e804cda1642f0d",
	"WikiDistinctEditors/sketch=false":  "74618832ff588eba0a4a9368488c0265f3b71c4c1b1ca224665f1fc43a99da61",
	"WikiDistinctEditors/sketch=true":   "04e33685f6d6dcad30e692ac9cdfccaa5d0efe11e4d54f6085332adf768685b1",
	"WikiEditorMembership/sketch=false": "e3ff90d94f72fa5f99bb65bd16f32cc8d150c576453bb8c04322189cda2ce132",
	"WikiEditorMembership/sketch=true":  "f2c7e2bf6c749d18d8f8d2ae868544da781a27b5b9af7a080093d98c30dc428d",
	"WikiLength/dropped":                "b8505b5127579ea924bce614c4c6c323c26b1f20c51dc98c407e45832679281a",
	"WikiLength/precise":                "6703ef21f1ebabfc7f2461bcfe1ba55ed54455217d441abea33e90295f40935b",
	"WikiLength/sampled":                "effd3745c817b72fd7f2a7877844e7d0cff74bfe67cb8106241fa415e11c9e88",
	"WikiLength/sampled+dropped":        "4474a66d2cd3133a3cf901997dcf287fc75a9c013f6b3a8d71dd625ad9275ef8",
	"WikiPageRank/dropped":              "ee3fc201ad706ea7c041b4ff57fdee90f53e6eae9a88388c3fa31abf7a759ada",
	"WikiPageRank/precise":              "43bcc4f6b8ed40924b93db9b6d6237008549ed5c7ed06dc488ac3176c328bf34",
	"WikiPageRank/sampled":              "6f620aac84324dc877984cdc53bae037ea46d2461297734f8e4b0553bce8248b",
	"WikiPageRank/sampled+dropped":      "23c3b665514feeba17085b6947ea8ebb93d84900846c21a825b51d10404999ce",
	"WikiRequestRate/dropped":           "ea25cd33682b013c2e4a600d639a7203df55d0db833500855348a0ca0215721f",
	"WikiRequestRate/precise":           "60237c3e04813cd7b64d264e03687d796aadfb2004f9897677bc20f6a5188cc9",
	"WikiRequestRate/sampled":           "6e3e47ddffb325966494a94eee451c2479990edb79f24a885edd39bdc206304d",
	"WikiRequestRate/sampled+dropped":   "d014c98deefe4ac93c539a66935b16bb5627f35e2920becc5702d0a4e8a378f3",
	"WikiTopPages/sketch=false":         "476d6d45e936f49b9d4a59d48ed53e9964ec1041636c375a88e258d8d0f342df",
	"WikiTopPages/sketch=true":          "eb3a8d0685afd399eaa0cbd2d0bbd4cd90a873f11c7db80d55625011e059016d",
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

// goldenJobs builds every golden run, keyed by its digest-table name.
func goldenJobs() map[string]*mapreduce.Job {
	wiki := smallWiki().File("wiki")
	log := smallLog().File("log")
	web := smallWeb().File("web")
	edits := workload.EditLog{Blocks: 8, LinesPerBlock: 400, Projects: 12, Editors: 300, Pages: 600, Seed: 5}.File("edits")
	seeds := workload.SearchSeeds("seeds", 24, 9)
	points := KMeansData("points", 8, 300, 4, 7)
	movie := VideoData("movie", 8, 60, 5)
	batch := []struct {
		name  string
		build func(Options) *mapreduce.Job
	}{
		{"WikiLength", func(o Options) *mapreduce.Job { return WikiLength(wiki, o) }},
		{"WikiPageRank", func(o Options) *mapreduce.Job { return WikiPageRank(wiki, o) }},
		{"AvgBytesPerLink", func(o Options) *mapreduce.Job { return AvgBytesPerLink(wiki, o) }},
		{"ProjectPopularity", func(o Options) *mapreduce.Job { return ProjectPopularity(log, o) }},
		{"PagePopularity", func(o Options) *mapreduce.Job { return PagePopularity(log, o) }},
		{"PageTraffic", func(o Options) *mapreduce.Job { return PageTraffic(log, o) }},
		{"WikiRequestRate", func(o Options) *mapreduce.Job { return WikiRequestRate(log, o) }},
		{"TotalSize", func(o Options) *mapreduce.Job { return TotalSize(web, o) }},
		{"RequestSize", func(o Options) *mapreduce.Job { return RequestSize(web, o) }},
		{"Clients", func(o Options) *mapreduce.Job { return Clients(web, o) }},
		{"ClientBrowser", func(o Options) *mapreduce.Job { return ClientBrowser(web, o) }},
		{"AttackFrequencies", func(o Options) *mapreduce.Job { return AttackFrequencies(web, o) }},
		{"WebRequestRate", func(o Options) *mapreduce.Job { return WebRequestRate(web, o) }},
		{"DCPlacement", func(o Options) *mapreduce.Job {
			return DCPlacement(seeds, DCPlacementConfig{Iters: 300}, o)
		}},
		{"KMeans", func(o Options) *mapreduce.Job {
			return KMeansIteration(points, KMeansConfig{ApproxRatio: 0.5}, o)
		}},
		{"VideoEncoding", func(o Options) *mapreduce.Job {
			return VideoEncoding(movie, VideoEncodingConfig{ApproxRatio: 0.5}, o)
		}},
	}
	modes := []struct {
		name string
		ctl  func() mapreduce.Controller
	}{
		{"precise", func() mapreduce.Controller { return nil }},
		{"sampled", func() mapreduce.Controller { return approx.NewStatic(0.25, 0) }},
		{"dropped", func() mapreduce.Controller { return approx.NewStatic(1, 0.25) }},
		{"sampled+dropped", func() mapreduce.Controller { return approx.NewStatic(0.25, 0.25) }},
	}
	jobs := map[string]*mapreduce.Job{}
	for _, b := range batch {
		for _, m := range modes {
			jobs[b.name+"/"+m.name] = b.build(Options{Seed: 1, Controller: m.ctl()})
		}
	}
	sketches := []struct {
		name  string
		build func(SketchOptions) *mapreduce.Job
	}{
		{"WikiDistinctEditors", func(o SketchOptions) *mapreduce.Job { return WikiDistinctEditors(edits, o) }},
		{"WikiTopPages", func(o SketchOptions) *mapreduce.Job { return WikiTopPages(log, o) }},
		{"WikiEditorMembership", func(o SketchOptions) *mapreduce.Job { return WikiEditorMembership(edits, o) }},
	}
	for _, s := range sketches {
		for _, sk := range []bool{false, true} {
			jobs[fmt.Sprintf("%s/sketch=%v", s.name, sk)] = s.build(SketchOptions{Options: Options{Seed: 1}, Sketch: sk})
		}
	}
	return jobs
}

// TestGoldenDigests gates every application end to end: each run must
// reproduce its recorded digest exactly. On a mismatch the new digest
// is printed; there is no update flag.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; the compiler may fuse multiply-adds on %s, which changes float bits", runtime.GOARCH)
	}
	jobs := goldenJobs()
	names := make([]string, 0, len(jobs))
	for name := range jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			job := jobs[name]
			var events []mapreduce.Event
			job.Trace = func(e mapreduce.Event) { events = append(events, e) }
			res, err := mapreduce.Run(appEngine(), job)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, goldenDigests[name], goldenDigest(res, events))
		})
	}
	for name := range goldenDigests {
		if jobs[name] == nil {
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
