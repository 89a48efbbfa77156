package ftl

import (
	"slices"
	"testing"

	"idaflash/internal/coding"
	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// refAddr widens a job record's page reference to a flash address.
func refAddr(r PageRef) flash.PageAddr {
	return pageAddr(flash.PlaneID(r.Plane), int(r.Block), int(r.Page))
}

// lpnAt names the LPN that lands on page type t of wordline wl in block blk
// of a tinyGeom device when a test writes LPNs 0, 1, 2, ... in order: blocks
// fill from block 0 upwards, each taking the next 12 LPNs in the shadow
// program order (L0; C0, L1; M0, C1, L2; M1, C2, L3; M2, C3; M3).
func lpnAt(blk, wl int, t coding.PageType) LPN {
	g := tinyGeom()
	step := slices.Index(pageOrder(g), wl*g.BitsPerCell+int(t))
	return LPN(blk*g.PagesPerBlock() + step)
}

// mustCollectGC and mustDueRefreshes run the background sweeps and fail the
// test on an allocation error, which on these well-sized test devices means
// a bug, not an undersized config.
func mustCollectGC(t testing.TB, f *FTL, now sim.Time) []GCJob {
	t.Helper()
	jobs, err := f.CollectGC(now)
	if err != nil {
		t.Fatalf("CollectGC: %v", err)
	}
	return jobs
}

func mustDueRefreshes(t testing.TB, f *FTL, now sim.Time) []RefreshJob {
	t.Helper()
	jobs, err := f.DueRefreshes(now)
	if err != nil {
		t.Fatalf("DueRefreshes: %v", err)
	}
	return jobs
}
