// Command idaserver serves the experiment runner over HTTP: named workload
// profiles run on simulated devices with bounded concurrency, admission
// control, per-request deadlines, and graceful drain on SIGTERM.
//
// Usage:
//
//	idaserver [-listen :8080] [-workers N] [-queue N] [-requests N]
//	          [-timeout 2m] [-max-timeout 10m] [-drain-timeout 30s]
//	          [-store-dir dir] [-store-sync] [-pprof-listen addr]
//
// Endpoints:
//
//	POST /v1/run       {"profile":"usr_1","system":{"ida":true,"error_rate":0.2}}
//	POST /v1/batch     whole sweeps; streams per-point progress (SSE/ndjson)
//	GET  /v1/jobs/{id} poll a batch job, or resume its stream (?watch=sse&from=N)
//	GET  /v1/profiles  list runnable profile names
//	GET  /statz        run and per-endpoint counters, job/runtime/arena gauges, cache stats
//	GET  /healthz      liveness (always 200 while the process serves)
//	GET  /readyz       readiness (503 once draining)
//
// With -store-dir, aged-device snapshots and simulation result payloads are
// persisted content-addressed under one directory with a shared eviction
// budget, so identical runs and whole batches are served from disk across
// restarts, byte for byte. Batch jobs become durable too: each submission
// writes a CRC-checked write-ahead journal under <store-dir>/jobs, and a
// restarted server resumes unfinished jobs under their original IDs,
// re-running only the points whose results are not already stored.
// -store-sync additionally fsyncs every blob write (the journal always
// syncs), trading write latency for power-loss durability. The server holds
// an exclusive lock on <store-dir>/LOCK while it runs; a second server on
// the same directory exits non-zero at startup.
//
// On SIGTERM or interrupt the server stops accepting work (/readyz flips to
// 503, queued runs are rejected), gives in-flight runs the drain timeout to
// finish, cancels whatever remains, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	// Registers the profiling endpoints on http.DefaultServeMux. The API
	// server runs its own mux, so the profiles are reachable only through
	// the separate, opt-in -pprof-listen listener.
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"idaflash"
	"idaflash/internal/farm"
	"idaflash/internal/results"
	"idaflash/internal/server"
)

func main() {
	var (
		listen       = flag.String("listen", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "max concurrent simulations; 0 means GOMAXPROCS")
		queue        = flag.Int("queue", 0, "admission queue depth beyond the workers; 0 means 2x workers")
		requests     = flag.Int("requests", 0, "default per-trace request budget; 0 uses the experiments default")
		timeout      = flag.Duration("timeout", 2*time.Minute, "default per-run deadline")
		maxTimeout   = flag.Duration("max-timeout", 10*time.Minute, "largest per-run deadline a client may request")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long in-flight runs get to finish on shutdown")
		storeDir     = flag.String("store-dir", "", "persist snapshots, result payloads, and the batch-job journal under this directory")
		storeSync    = flag.Bool("store-sync", false, "fsync every store blob write so the cache survives power loss (the job journal always syncs)")
		pprofListen  = flag.String("pprof-listen", "", "serve net/http/pprof debug endpoints on this address (e.g. localhost:6060); empty disables them")
	)
	flag.Parse()
	dir := *storeDir
	logger := log.New(os.Stderr, "idaserver: ", log.LstdFlags)
	var journal *farm.Journal
	if dir != "" {
		// One server per store directory. The lock is held until exit.
		release, err := results.LockDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "idaserver:", err)
			os.Exit(1)
		}
		defer release()
		if err := idaflash.SetStoreDirSync(dir, *storeSync); err != nil {
			fmt.Fprintln(os.Stderr, "idaserver:", err)
			os.Exit(1)
		}
		idaflash.DefaultSnapshots.Logf = logger.Printf
		idaflash.StoreDisk().Logf = logger.Printf
		j, err := farm.OpenJournal(filepath.Join(dir, "jobs"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "idaserver:", err)
			os.Exit(1)
		}
		j.Logf = logger.Printf
		journal = j
	}
	if *pprofListen != "" {
		// The profiling listener is deliberately separate from the API
		// listener: exposing pprof is opt-in, and an operator can bind it
		// to localhost while the API serves a wider network.
		go func(addr string) {
			log.Printf("idaserver: pprof listening on %s", addr)
			if err := http.ListenAndServe(addr, nil); err != nil {
				log.Printf("idaserver: pprof listener: %v", err)
			}
		}(*pprofListen)
	}
	if err := run(*listen, server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		Requests:       *requests,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Log:            logger,
		Journal:        journal,
	}, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "idaserver:", err)
		os.Exit(1)
	}
}

func run(listen string, cfg server.Config, drainTimeout time.Duration) error {
	srv := server.New(cfg)
	if d := idaflash.StoreDisk(); d != nil {
		// Result payloads share the snapshot store's disk root (and its
		// eviction budget), so a repeated batch survives a restart.
		srv.ResultStore().SetBlobs(d.Sub(idaflash.ExtResult))
	}
	// Recover after the blob tier is attached, so a resumed job's
	// already-computed points are store hits, not fresh simulations.
	if n := srv.RecoverJobs(); n > 0 {
		cfg.Log.Printf("resumed %d unfinished job(s) from the journal", n)
	}
	hs := &http.Server{Addr: listen, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		cfg.Log.Printf("listening on %s", listen)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err // bind failure or unexpected server exit
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second SIGTERM kills us

	// Drain order matters: flip readiness and reject queued work first,
	// then give in-flight runs their deadline, then close the listener.
	// Closing the listener first would drop the /readyz endpoint while
	// orchestrators still probe it.
	cfg.Log.Printf("draining (up to %v)", drainTimeout)
	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		cfg.Log.Printf("drain deadline hit; remaining runs cancelled")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	cfg.Log.Printf("drained; exiting")
	return nil
}
