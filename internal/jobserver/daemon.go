package jobserver

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// ErrClosed is returned for operations on a stopped daemon.
var ErrClosed = errors.New("jobserver: daemon stopped")

// Daemon runs a fleet of engine shards behind driver goroutines: HTTP
// handlers never touch a virtual timeline directly, they post closures
// to the owning shard's mailbox. Each shard's virtual-time plane stays
// single-threaded even though submissions arrive concurrently over the
// network, and the shards run genuinely in parallel — a single daemon
// process scales across cores by adding shards, not threads per engine.
//
// Two submission modes exist. Live mode admits each job at whatever
// virtual instant its request reaches its shard's driver — the natural
// behavior for an interactive service, but wall-clock arrival order
// leaks into the timeline. Hold mode instead parks submissions in a
// buffer; Release sorts them by (SubmitAt, Name) and replays the
// batch on the virtual clocks, so N clients hammering the daemon
// concurrently still produce byte-identical per-job results. The
// /v1/replay endpoint is the one-request equivalent for callers that
// already hold the whole trace.
type Daemon struct {
	fleet *Fleet
	// streams is the continuous-query registry. Streams live outside
	// the driver goroutines: their pipelines never touch a shared
	// engine's virtual timeline (see streams.go), so they need none of
	// the mailbox discipline batch jobs do.
	streams *StreamSet
	once    sync.Once

	// Resolved HTTP limits (see DaemonConfig): requestTimeout <= 0 and
	// maxLag == 0 mean unlimited.
	requestTimeout time.Duration
	maxBody        int64
	maxLag         int

	// hold is fixed at construction. The hold-mode buffer is
	// fleet-level: held specs are not yet placed on any shard — Release
	// routes the whole sorted batch at once.
	hold bool
	hmu  sync.Mutex
	held []JobSpec
}

// DaemonConfig configures NewDaemon, the one way a daemon is built —
// by cmd/approxd (through Serve), the tests, and approxbench alike.
type DaemonConfig struct {
	// Service configures the underlying Service (each shard gets a
	// copy; see Shards).
	Service Config
	// Shards is the engine-fleet size (0 or 1 = the classic standalone
	// daemon). Each shard is an independent engine with its own virtual
	// clock and journal segment; jobs are placed by consistent hashing
	// on JobSpec.PlacementKey. Restart with the same count — recovery
	// refuses journal segments that would re-place recovered jobs.
	Shards int
	// Hold enables hold mode (see Daemon).
	Hold bool
	// JournalPath, when non-empty, opens (creating if absent) the
	// write-ahead journal there and recovers any previous life's jobs
	// before serving traffic. A sharded daemon keeps one segment per
	// shard: shard 0 uses the path verbatim (so a 1-shard fleet is
	// journal-compatible with the pre-fleet daemon), shard i uses
	// "<path>.shard<i>".
	JournalPath string
	// RequestTimeout bounds quick HTTP endpoints via
	// http.TimeoutHandler (default 10s; negative disables). Streams and
	// replays are exempt — see Daemon.Handler.
	RequestTimeout time.Duration
	// MaxBody bounds POST request bodies (default 4 MiB).
	MaxBody int64
	// MaxLag is the slow-subscriber drop threshold for frame streams
	// (0 = DefaultMaxLag; negative disables dropping).
	MaxLag int
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// NewDaemon builds a daemon and starts its fleet: it expands the shard
// configs, refuses a journal segment left by a larger fleet, opens and
// recovers each shard's journal segment, and only then starts the
// driver goroutines. Call Stop when done.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	shardCfgs := shardConfigs(cfg.Service, cfg.Shards)
	if cfg.JournalPath != "" {
		// A segment for shard len(shardCfgs) means a previous life ran
		// with more shards: booting smaller would silently orphan its
		// jobs. Refuse before touching any journal.
		if orphan := shardJournalPath(cfg.JournalPath, len(shardCfgs)); fileExists(orphan) {
			return nil, fmt.Errorf("jobserver: journal segment %s exists but this boot has only %d shard(s); restart with the original shard count", orphan, len(shardCfgs))
		}
	}
	svcs := make([]*Service, len(shardCfgs))
	for i, scfg := range shardCfgs {
		svc := New(scfg)
		if cfg.JournalPath != "" {
			if err := recoverShard(svc, shardJournalPath(cfg.JournalPath, i), logf); err != nil {
				closeServices(svcs[:i])
				return nil, err
			}
		}
		svcs[i] = svc
	}
	d := &Daemon{
		fleet:          NewFleet(svcs, svcs[0].cfg.TenantQuota),
		streams:        NewStreamSet(svcs[0].cfg.MaxActive, svcs[0].cfg.Workers),
		requestTimeout: cfg.RequestTimeout,
		maxBody:        cfg.MaxBody,
		maxLag:         cfg.MaxLag,
		hold:           cfg.Hold,
	}
	if d.requestTimeout == 0 {
		d.requestTimeout = 10 * time.Second
	}
	if d.maxBody <= 0 {
		d.maxBody = 4 << 20 // a generous trace, not a DoS vector
	}
	switch {
	case d.maxLag == 0:
		d.maxLag = DefaultMaxLag
	case d.maxLag < 0:
		d.maxLag = 0
	}
	return d, nil
}

// shardConfigs expands cfg into per-shard configs: each shard gets a
// distinct id prefix ("job-s2-") and its shard index; a count of one
// keeps cfg untouched, so a 1-shard fleet is bit-compatible with the
// pre-fleet daemon (ids, journals, everything).
func shardConfigs(cfg Config, shards int) []Config {
	if shards <= 1 {
		return []Config{cfg}
	}
	out := make([]Config, shards)
	for i := range out {
		out[i] = cfg
		out[i].IDPrefix = fmt.Sprintf("job-s%d-", i)
		out[i].ShardIndex = i
	}
	return out
}

// shardJournalPath is shard i's journal segment path: shard 0 keeps
// the configured path exactly (pre-fleet compatibility), later shards
// get a ".shard<i>" suffix.
func shardJournalPath(path string, i int) string {
	if i == 0 {
		return path
	}
	return fmt.Sprintf("%s.shard%d", path, i)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// recoverShard opens svc's journal segment at path and replays it.
// Recovery runs before the driver goroutine exists, so the
// engine-goroutine-only methods are safe here by construction.
func recoverShard(svc *Service, path string, logf func(string, ...any)) error {
	j, recs, err := OpenJournal(path)
	if err != nil {
		return err
	}
	svc.UseJournal(j)
	rs, err := svc.Recover(recs)
	if err != nil {
		if cerr := j.Close(); cerr != nil {
			return fmt.Errorf("%w (and journal close failed: %v)", err, cerr)
		}
		return err
	}
	if rs.Terminal+rs.Requeued+rs.Canceled > 0 {
		logf("journal %s: restored %d completed, re-admitted %d interrupted, finalized %d canceled",
			path, rs.Terminal, rs.Requeued, rs.Canceled)
	}
	return nil
}

// closeServices closes already-built services during an aborted boot
// (committing and closing any journals they hold).
func closeServices(svcs []*Service) {
	for _, svc := range svcs {
		svc.Close()
	}
}

// Stop shuts every shard driver down and wakes every stream waiter.
// Running continuous queries are stopped at their next window.
func (d *Daemon) Stop() {
	d.once.Do(func() {
		d.streams.Close()
		d.fleet.Close()
	})
}

// Drain begins a graceful shutdown: new submissions fail with
// ErrDraining (HTTP 503 + Retry-After) in live and hold mode alike,
// queued jobs stop being admitted — their journaled submit records
// carry them to the next boot — and running jobs get up to grace
// wall-clock time to finish (virtual time runs as fast as the drivers
// can pump it, so this is normally milliseconds). It returns true when
// every shard went quiet, false on grace expiry; either way buffered
// journal records have been committed. Call Stop afterwards.
func (d *Daemon) Drain(grace time.Duration) bool {
	d.fleet.StartDrain()
	deadline := time.Now().Add(grace)
	finished := false
	for {
		active, err := d.fleet.ActiveTotal()
		if err != nil {
			return true // drivers already stopped, nothing is running
		}
		if active == 0 {
			finished = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Group-commit whatever the drain produced (terminal records for
	// jobs that finished, nothing for the still-queued) so the journals
	// are durable even if the process is killed before Stop.
	d.fleet.Quiesce()
	return finished
}

// Submit admits one job (live mode — placed on its shard and run
// there) or parks it (hold mode, in which case the returned id is
// empty and held is the buffer depth). A draining daemon refuses
// with ErrDraining in both modes.
func (d *Daemon) Submit(spec JobSpec) (id string, held int, err error) {
	if !d.hold {
		id, err = d.fleet.Submit(spec)
		return id, 0, err
	}
	if d.fleet.Draining() {
		return "", 0, ErrDraining
	}
	d.hmu.Lock()
	defer d.hmu.Unlock()
	d.held = append(d.held, spec)
	return "", len(d.held), nil
}

// Release replays the held submissions as one sorted batch and
// returns their final states. Outside hold mode it is a no-op.
func (d *Daemon) Release() (states []JobState, err error) {
	d.hmu.Lock()
	specs := d.held
	d.held = nil
	d.hmu.Unlock()
	return d.fleet.Replay(specs)
}
