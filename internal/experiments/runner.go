// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulator: the workload characterization
// (Table III, Figure 4), the headline read-response comparison across
// voltage-adjustment error rates (Figure 8), the refresh overhead audit
// (Table IV), the delta-tR sensitivity sweep (Figure 9), throughput
// (Figure 10), the lifetime/read-retry study (Figure 11), the MLC device
// (Table V), and the QLC extension (Figure 6).
//
// Runs are memoized per (profile, system) pair, so experiments that share
// configurations (e.g. Figure 8 and Figure 10 both need Baseline and
// IDA-E20) reuse simulations, and independent simulations execute in
// parallel.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"idaflash"
	"idaflash/internal/memo"
	"idaflash/internal/workload"
)

// DefaultRequests is the per-trace request budget the harness (and the
// HTTP service) uses when none is given.
const DefaultRequests = 40000

// memoLimit bounds the runner's memo. The full suite (every experiment of
// All at one budget) simulates 378 distinct (profile, system) pairs, so 512
// keeps a whole regeneration resident while still capping what a
// long-lived process retains.
const memoLimit = 512

// Options tunes the experiment harness.
type Options struct {
	// Requests is the per-trace request budget. Larger is smoother but
	// slower; the default (DefaultRequests) reproduces the paper's shapes
	// in minutes on a laptop.
	Requests int
	// Parallel caps concurrent simulations; defaults to GOMAXPROCS.
	Parallel int
	// Progress, when non-nil, receives one line per finished run.
	Progress io.Writer
}

func (o Options) withDefaults() Options {
	if o.Requests == 0 {
		o.Requests = DefaultRequests
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// Runner memoizes simulation runs across experiments.
type Runner struct {
	opts Options
	// run executes one simulation; idaflash.RunWorkloadContext in
	// production, replaced by tests counting actual invocations.
	run func(context.Context, workload.Profile, idaflash.System) (idaflash.Results, error)

	memo *memo.Cache[idaflash.Results]
	sem  chan struct{}
}

// NewRunner builds a runner.
func NewRunner(opts Options) *Runner {
	opts = opts.withDefaults()
	return &Runner{
		opts: opts,
		run:  idaflash.RunWorkloadContext,
		memo: memo.New[idaflash.Results](memoLimit),
		sem:  make(chan struct{}, opts.Parallel),
	}
}

// Run executes (or recalls) one simulation. Concurrent calls with the same
// key run the simulation once: the first caller executes it, later callers
// block on its completion and share the result.
func (r *Runner) Run(p workload.Profile, sys idaflash.System) (idaflash.Results, error) {
	return r.RunContext(context.Background(), p, sys)
}

// RunContext is Run with cooperative cancellation. Runs are memoized by the
// canonical Key, so equivalent descriptions of one simulation share an
// entry. A run that fails or is cancelled is not kept: its waiters (and any
// later identical request) re-execute instead of inheriting a partial
// result, and a waiter whose own context ends stops waiting without
// disturbing the executing run.
func (r *Runner) RunContext(ctx context.Context, p workload.Profile, sys idaflash.System) (idaflash.Results, error) {
	k, kerr := Key(p, sys)
	if kerr != nil {
		// Uncacheable is not unrunnable: execute without memoizing.
		return r.execute(ctx, p, sys)
	}
	res, _, err := r.memo.Do(ctx, k, func(ctx context.Context) (idaflash.Results, error) {
		return r.execute(ctx, p, sys)
	})
	return res, err
}

// execute runs one simulation under the concurrency cap, skipping the queue
// wait when ctx ends first.
func (r *Runner) execute(ctx context.Context, p workload.Profile, sys idaflash.System) (idaflash.Results, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return idaflash.Results{}, ctx.Err()
	}
	start := time.Now()
	res, err := r.run(ctx, p, sys)
	<-r.sem

	if r.opts.Progress != nil {
		fmt.Fprintf(r.opts.Progress, "ran %-8s %-12s in %v\n", p.Name, sys.Name, time.Since(start).Round(time.Millisecond))
	}
	return res, err
}

// RunAll warms the cache for all points concurrently. Every failing point
// is reported, joined with errors.Join, so one bad configuration cannot mask
// the others.
func (r *Runner) RunAll(points []Point) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(points))
	for _, pt := range points {
		pt := pt
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(pt.Profile, pt.System); err != nil {
				errCh <- fmt.Errorf("%s/%s: %w", pt.Profile.Name, pt.System.Name, err)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	errs := make([]error, 0, len(errCh))
	for err := range errCh {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// profiles returns the 11 paper workloads at the configured request budget.
func (r *Runner) profiles() []workload.Profile {
	return workload.PaperProfiles(r.opts.Requests)
}

// crossProduct builds the point list of every profile with every system.
func crossProduct(ps []workload.Profile, systems []idaflash.System) []Point {
	out := make([]Point, 0, len(ps)*len(systems))
	for _, p := range ps {
		for _, s := range systems {
			out = append(out, Point{Profile: p, System: s})
		}
	}
	return out
}
