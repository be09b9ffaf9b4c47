package jobserver

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ServeConfig configures Serve, the crash-safe daemon front end shared
// by cmd/approxd and the chaos harness (which must boot the exact
// production path it kills).
type ServeConfig struct {
	// DaemonConfig builds the daemon (see NewDaemon).
	DaemonConfig
	// Addr is the listen address (":0" picks an ephemeral port; OnReady
	// learns the real one).
	Addr string
	// Grace bounds how long a SIGTERM/SIGINT drain waits for running
	// jobs before giving up and relying on the journal (default 10s).
	Grace time.Duration
	// OnReady, if set, runs once the listener is accepting; addr is the
	// bound address.
	OnReady func(addr string, d *Daemon)
}

// Serve runs the daemon to completion: build it with NewDaemon (open
// and replay the journal, re-admit interrupted work), listen, serve,
// and on SIGTERM/SIGINT drain gracefully — new submissions get 503 +
// Retry-After, running jobs finish within the grace, queued jobs stay
// journaled for the next boot — then flush and exit. It returns once
// the listener is closed and every journaled byte is durable.
func Serve(cfg ServeConfig) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 10 * time.Second
	}
	d, err := NewDaemon(cfg.DaemonConfig)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		d.Stop()
		return err
	}
	srv := &http.Server{
		Handler: d.Handler(),
		// Slowloris guard; full-request reads are bounded per endpoint
		// by MaxBytesReader + TimeoutHandler instead of a blanket
		// ReadTimeout, which would kill long-lived streams.
		ReadHeaderTimeout: 5 * time.Second,
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigs)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logf("listening on %s", ln.Addr())
	if cfg.OnReady != nil {
		cfg.OnReady(ln.Addr().String(), d)
	}

	select {
	case err := <-serveErr:
		d.Stop()
		return err
	case sig := <-sigs:
		logf("%v: draining (grace %s)", sig, cfg.Grace)
		if d.Drain(cfg.Grace) {
			logf("drain complete: running jobs finished, queued jobs stay journaled for the next boot")
		} else {
			logf("drain grace expired with jobs still running; the journal re-executes them on restart")
		}
		// Stop the driver and close the journal first: Service.Close
		// broadcasts to every stream waiter, so in-flight stream
		// handlers observe the shutdown and return, letting Shutdown's
		// in-flight-handler wait below actually finish.
		d.Stop()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := srv.Shutdown(sctx)
		cancel()
		<-serveErr // srv.Serve has returned http.ErrServerClosed
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				logf("shutdown timed out waiting for in-flight requests; exiting anyway")
				return nil
			}
			return err
		}
		logf("shutdown complete")
		return nil
	}
}
