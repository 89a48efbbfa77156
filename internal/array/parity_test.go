package array

import (
	"context"
	"testing"
	"time"

	"idaflash/internal/faults"
	"idaflash/internal/ssd"
	"idaflash/internal/workload"
)

func TestParityDevRotation(t *testing.T) {
	const devices = 4
	for row := int64(0); row < 8; row++ {
		p := parityDev(row, devices)
		if p != int(row%devices) {
			t.Fatalf("row %d: parity on device %d", row, p)
		}
		seen := map[int]bool{p: true}
		for k := int64(0); k < devices-1; k++ {
			d := dataDev(row, k, devices)
			if seen[d] {
				t.Fatalf("row %d: device %d assigned twice", row, d)
			}
			seen[d] = true
		}
		if len(seen) != devices {
			t.Fatalf("row %d: %d devices used, want all %d", row, len(seen), devices)
		}
	}
}

func TestSplitParityLayout(t *testing.T) {
	const unit = 4096
	const devices = 3
	// One read (row 0) and one write spanning rows 0 and 1.
	tr := &workload.Trace{Name: "lay", Requests: []workload.Request{
		{At: 0, Offset: 0, Size: unit, Read: true},
		{At: time.Millisecond, Offset: 0, Size: 3 * unit, Read: false},
	}}
	subs := SplitParity(tr, devices, unit)

	// The read of data unit 0 (row 0, parity on dev 0) touches only dev 1.
	var reads []workload.Request
	for d, sub := range subs {
		for _, r := range sub.Requests {
			if r.Read {
				if d != 1 {
					t.Errorf("read sub-request on device %d: %+v", d, r)
				}
				reads = append(reads, r)
			}
		}
	}
	if len(reads) != 1 || reads[0].Offset != 0 || reads[0].Size != unit {
		t.Fatalf("read split wrong: %+v", reads)
	}

	// The write covers data units 0,1 (row 0 -> devs 1,2) and unit 2
	// (row 1, parity dev 1 -> data dev 0), all at local offset row*unit,
	// plus one parity write per row: row 0 on dev 0 at [0,unit), row 1 on
	// dev 1 at [unit, 2*unit).
	type ext struct {
		dev  int
		off  int64
		size int
	}
	var writes []ext
	for d, sub := range subs {
		for _, r := range sub.Requests {
			if !r.Read {
				writes = append(writes, ext{d, r.Offset, r.Size})
			}
		}
	}
	var total int64
	for _, w := range writes {
		total += int64(w.size)
	}
	// 3 data units + 2 parity units.
	if total != 5*unit {
		t.Errorf("write bytes dealt = %d, want %d (3 data + 2 parity units)", total, 5*unit)
	}
	// Per-device totals pin the rotation: dev0 = row-0 parity + row-1 data,
	// dev1 = row-0 data + row-1 parity, dev2 = row-0 data.
	perDev := map[int]int64{}
	for _, w := range writes {
		perDev[w.dev] += int64(w.size)
	}
	if perDev[0] != 2*unit || perDev[1] != 2*unit || perDev[2] != unit {
		t.Errorf("per-device write bytes = %v, want dev0=%d dev1=%d dev2=%d",
			perDev, 2*unit, 2*unit, unit)
	}
}

// TestSplitParityRoundTripsBytes maps every data sub-request back to host
// addresses: each host byte must be covered exactly once, and parity writes
// must cover exactly the written span of each touched row.
func TestSplitParityRoundTripsBytes(t *testing.T) {
	const unit = 4096
	const devices = 3
	const data = devices - 1
	tr := &workload.Trace{Name: "rt", Requests: []workload.Request{
		{At: 0, Offset: 1000, Size: 30000, Read: false},
	}}
	subs := SplitParity(tr, devices, unit)
	covered := make(map[int64]int)
	var parityBytes int64
	for d, sub := range subs {
		for _, r := range sub.Requests {
			for b := r.Offset; b < r.End(); b++ {
				row := b / unit
				if parityDev(row, devices) == d {
					parityBytes++
					continue
				}
				// Invert dataDev: device d holds data unit k of this row.
				k := int64(d)
				if d > parityDev(row, devices) {
					k--
				}
				host := (row*data+k)*unit + b%unit
				covered[host]++
			}
		}
	}
	r := tr.Requests[0]
	for b := r.Offset; b < r.End(); b++ {
		if covered[b] != 1 {
			t.Fatalf("host byte %d covered %d times", b, covered[b])
		}
	}
	if int64(len(covered)) != int64(r.Size) {
		t.Fatalf("covered %d bytes, want %d", len(covered), r.Size)
	}
	// Rows touched: host units 0..7 -> rows 0..3, written spans sum to the
	// union of intra-unit spans per row; with a dense request every touched
	// row's parity covers its full written span. The exact value matters
	// less than parity being present and bounded by one unit per row.
	if parityBytes == 0 {
		t.Fatal("no parity writes emitted")
	}
	rows := (r.End()-1)/(unit*data) - r.Offset/(unit*data) + 1
	if parityBytes > rows*unit {
		t.Errorf("parity bytes %d exceed one unit per touched row (%d rows)", parityBytes, rows)
	}
}

func degradedScenario(after time.Duration) *faults.Scenario {
	return &faults.Scenario{
		Seed:  21,
		Dies:  []faults.Outage{{Device: 1, Unit: 0, After: faults.Duration(after)}},
		Retry: faults.Retry{Max: 2, Backoff: faults.Duration(25 * time.Microsecond)},
	}
}

// TestParityDegradedRecovery is the acceptance scenario: a die on one array
// member fails permanently mid-run; with parity enabled every failed read is
// rebuilt from the peers and no host data is lost.
func TestParityDegradedRecovery(t *testing.T) {
	dc := deviceConfig()
	dc.Faults = degradedScenario(2 * time.Millisecond)
	a, err := New(Config{Devices: 4, Device: dc, Parity: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background(), parallelTrace("degraded", 400), ssd.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Parity {
		t.Error("results not flagged as parity run")
	}
	if res.Combined.Faults.FailedReadPages == 0 {
		t.Fatal("outage never failed a read; move the outage earlier")
	}
	if res.Degraded.DegradedExtents == 0 || res.Degraded.ReconRequests == 0 {
		t.Fatalf("no degraded reads rebuilt: %+v", res.Degraded)
	}
	if res.Degraded.LostExtents != 0 {
		t.Fatalf("%d extents lost despite healthy peers: %+v", res.Degraded.LostExtents, res.Degraded)
	}
}

// TestNoParityLosesFailedReads: the same outage without parity completes
// (no hangs) but reports the failed reads with no reconstruction.
func TestNoParityLosesFailedReads(t *testing.T) {
	dc := deviceConfig()
	dc.Faults = degradedScenario(2 * time.Millisecond)
	a, err := New(Config{Devices: 4, Device: dc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background(), parallelTrace("no-parity", 400), ssd.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parity {
		t.Error("results flagged as parity run")
	}
	if res.Combined.Faults.FailedReadPages == 0 || res.Combined.Faults.FailedReadRequests == 0 {
		t.Fatalf("no failed reads surfaced: %+v", res.Combined.Faults)
	}
	if res.Degraded != (DegradedStats{}) {
		t.Errorf("reconstruction ran without parity: %+v", res.Degraded)
	}
}

// TestParityRunDeterministic: two identical parity arrays under the same
// fault scenario produce identical merged scalars and degraded accounting.
func TestParityRunDeterministic(t *testing.T) {
	run := func() Results {
		dc := deviceConfig()
		dc.Faults = degradedScenario(2 * time.Millisecond)
		a, err := New(Config{Devices: 4, Device: dc, Parity: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.RunContext(context.Background(), parallelTrace("det", 300), ssd.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Combined.Scalars() != b.Combined.Scalars() {
		t.Errorf("combined results diverged:\n%+v\n%+v", a.Combined.Scalars(), b.Combined.Scalars())
	}
	if a.Degraded != b.Degraded {
		t.Errorf("degraded accounting diverged: %+v vs %+v", a.Degraded, b.Degraded)
	}
	for d := range a.PerDevice {
		if a.PerDevice[d].Scalars() != b.PerDevice[d].Scalars() {
			t.Errorf("device %d diverged", d)
		}
	}
}
