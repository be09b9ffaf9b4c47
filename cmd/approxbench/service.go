// The "service" experiment: an end-to-end benchmark of approxd itself,
// run against in-process daemons booted on loopback HTTP — the exact
// serving path, minus process startup.
//
// It answers the two questions the sharded daemon exists for:
//
//  1. Throughput: closed-loop clients pull the same deterministic job
//     mix through a 1-shard/JSONL daemon and an N-shard/binary daemon;
//     the report carries QPS and submit/complete percentiles for both.
//  2. Fan-out cost: with the multicast frame cache, one encoded buffer
//     per sequence number is shared by every stream subscriber, so the
//     encode count must stay flat as subscribers grow. The experiment
//     replays one finished job's stream to 1 and then 64 concurrent
//     subscribers and records the wire-encode delta (expected: 0 — the
//     frames were encoded when the job ran, never per subscriber).
//
// This lives in cmd/approxbench (not internal/harness) because the
// harness is imported by the jobserver spec builder — routing the
// experiment through the harness would create an import cycle.
package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"approxhadoop/internal/jobserver"
	"approxhadoop/internal/loadgen"
	"approxhadoop/internal/wire"
)

// ServiceVariant is one daemon configuration's closed-loop measurement.
type ServiceVariant struct {
	Name   string         `json:"name"`
	Shards int            `json:"shards"`
	Binary bool           `json:"binary"`
	Load   loadgen.Report `json:"load"`
}

// FanoutStat is one subscriber-count data point of the multicast test.
type FanoutStat struct {
	Subscribers int `json:"subscribers"`
	// Frames and Bytes are per subscriber (every subscriber sees the
	// same full replay of the terminal job's stream).
	FramesPerSub int   `json:"framesPerSub"`
	BytesPerSub  int64 `json:"bytesPerSub"`
	// Encodes is the wire-encode delta across the whole fan-out: with
	// the shared frame cache it stays 0 no matter how many subscribers
	// attach, because the buffers were encoded when the job ran.
	Encodes uint64 `json:"encodes"`
}

// ServiceReport is the "service" experiment's trajectory payload.
type ServiceReport struct {
	Variants []ServiceVariant `json:"variants"`
	Fanout   []FanoutStat     `json:"fanout"`
	// SpeedupQPS is sharded-binary QPS over single-shard-JSON QPS.
	SpeedupQPS float64 `json:"speedupQPS"`
}

// bootServiceDaemon starts an in-process daemon on a loopback listener
// and returns its base URL and a shutdown func. It builds the daemon
// with the same constructor Serve uses and serves Daemon.Handler — the
// production route table — without Serve's signal handling.
func bootServiceDaemon(cfg jobserver.Config, shards int) (string, func(), error) {
	d, err := jobserver.NewDaemon(jobserver.DaemonConfig{Service: cfg, Shards: shards})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Stop()
		return "", nil, err
	}
	srv := &http.Server{Handler: d.Handler()}
	go func() {
		//lint:ignore errcheck Serve returns ErrServerClosed on the Close below
		_ = srv.Serve(ln)
	}()
	stop := func() {
		//lint:ignore errcheck benchmark teardown; the measurements are already taken
		_ = srv.Close()
		d.Stop()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// serviceLoadVariant boots a daemon and pulls the standard closed-loop
// mix through it.
func serviceLoadVariant(name string, shards int, binary bool, seed int64, clients, ops int) (ServiceVariant, error) {
	base, stop, err := bootServiceDaemon(jobserver.Config{}, shards)
	if err != nil {
		return ServiceVariant{}, err
	}
	defer stop()
	rep := loadgen.RunClosedLoop(loadgen.Config{
		Base:    base,
		Clients: clients,
		Ops:     ops,
		Seed:    seed,
		Watch:   true,
		Binary:  binary,
	})
	if rep.Errors > 0 || rep.Ops != ops {
		return ServiceVariant{}, fmt.Errorf("service: %s completed %d/%d ops with %d errors", name, rep.Ops, ops, rep.Errors)
	}
	return ServiceVariant{Name: name, Shards: shards, Binary: binary, Load: rep}, nil
}

// measureFanout submits one snapshot-heavy job, waits for it to
// finish, then replays its stream to each subscriber count, recording
// the wire-encode delta per fan-out.
func measureFanout(seed int64, subCounts []int) ([]FanoutStat, error) {
	// A tight snapshot interval gives the probe job a real frame
	// series; the default (40 virtual seconds) would finish small jobs
	// in a single terminal frame and leave nothing to multicast.
	base, stop, err := bootServiceDaemon(jobserver.Config{SnapshotEvery: 0.25}, 1)
	if err != nil {
		return nil, err
	}
	defer stop()

	spec := jobserver.LoadSpec(seed, 0, 1)
	spec.Name = "fanout-probe"
	spec.Blocks = 64 // more waves -> more snapshot frames to multicast
	deadline := time.Now().Add(time.Minute)
	id, _, err := loadgen.Submit(base, spec, deadline)
	if err != nil {
		return nil, err
	}
	// Run the job to terminal via one throwaway subscription; every
	// frame is encoded (exactly once) during this phase.
	if _, _, err := loadgen.Watch(base, id, true, deadline); err != nil {
		return nil, err
	}

	var out []FanoutStat
	for _, n := range subCounts {
		before := wire.Encodes()
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			frames   int
			subBytes int64
			firstErr error
		)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f, b, err := loadgen.Watch(base, id, true, deadline)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				frames, subBytes = f, b
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		out = append(out, FanoutStat{
			Subscribers:  n,
			FramesPerSub: frames,
			BytesPerSub:  subBytes,
			Encodes:      wire.Encodes() - before,
		})
	}
	return out, nil
}

// runService executes the whole experiment and prints a summary table.
func runService(seed int64) (*ServiceReport, error) {
	const (
		clients = 8
		ops     = 32
		shards  = 4
	)
	rep := &ServiceReport{}
	fmt.Printf("service: closed-loop %d clients x %d ops, watch streams to terminal\n", clients, ops)
	for _, v := range []struct {
		name   string
		shards int
		binary bool
	}{
		{"1shard-json", 1, false},
		{fmt.Sprintf("%dshard-binary", shards), shards, true},
	} {
		variant, err := serviceLoadVariant(v.name, v.shards, v.binary, seed, clients, ops)
		if err != nil {
			return nil, err
		}
		rep.Variants = append(rep.Variants, variant)
		l := variant.Load
		fmt.Printf("  %-14s %6.1f ops/s   submit p50/p99 %.2f/%.2f ms   complete p50/p99 %.1f/%.1f ms   %d frames, %d stream bytes\n",
			v.name, l.QPS, l.SubmitP50, l.SubmitP99, l.CompleteP50, l.CompleteP99, l.Frames, l.StreamBytes)
	}
	if base := rep.Variants[0].Load.QPS; base > 0 {
		rep.SpeedupQPS = rep.Variants[len(rep.Variants)-1].Load.QPS / base
		fmt.Printf("  speedup: %.2fx QPS (%s vs %s)\n", rep.SpeedupQPS, rep.Variants[1].Name, rep.Variants[0].Name)
	}

	fanout, err := measureFanout(seed, []int{1, 16, 64})
	if err != nil {
		return nil, err
	}
	rep.Fanout = fanout
	for _, f := range fanout {
		fmt.Printf("  fanout %3d subs: %d frames/sub, %d bytes/sub, %d re-encodes\n",
			f.Subscribers, f.FramesPerSub, f.BytesPerSub, f.Encodes)
	}
	last := fanout[len(fanout)-1]
	if last.Encodes != 0 {
		return nil, fmt.Errorf("service: fan-out to %d subscribers re-encoded %d frames; the multicast cache is broken", last.Subscribers, last.Encodes)
	}
	return rep, nil
}
