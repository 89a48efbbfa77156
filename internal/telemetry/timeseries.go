package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// Activity counts the device operations that happened within one sampling
// interval. All fields are per-interval deltas, not cumulative totals, so
// plotting a column directly shows activity over time. The device's sampler
// computes them as differences of the running totals it already reports
// (the FTL counters, the fault retry counters and the completed request
// counts), so the columns sum to the run's totals over the sampled span.
type Activity struct {
	// ReadsDone and WritesDone count host requests completed.
	ReadsDone  uint64
	WritesDone uint64
	// ReadPages counts FTL host page reads; Senses sums their wordline
	// sensing counts (Senses/ReadPages is the interval's mean sensing
	// cost, the quantity IDA coding shrinks). IDAReadPages is the subset
	// served from IDA-reprogrammed wordlines.
	ReadPages    uint64
	Senses       uint64
	IDAReadPages uint64
	// WritePages counts FTL host page programs.
	WritePages uint64
	// GC and refresh job activity.
	GCJobs       uint64
	GCMoves      uint64
	Refreshes    uint64
	RefreshMoves uint64
	AdjustedWLs  uint64
	IDARefreshes uint64
	// FaultRetries counts host-path flash commands re-issued after an
	// injected fault (outage or transient timeout) within the interval.
	FaultRetries uint64
}

// Sample is one fixed-interval snapshot of device state. Gauges (queue
// depths, block populations) are instantaneous values at the sample
// instant; busy durations are deltas over the preceding interval.
type Sample struct {
	// At is the simulated instant of the snapshot.
	At time.Duration
	// Device tags the stream (stamped by Recorder.Record).
	Device int

	// Host interface occupancy.
	HostInFlight int // requests holding a submission-queue slot
	HostQueued   int // requests parked host-side

	// Die/channel scheduler state: busy server counts and summed queue
	// depths at the instant, plus busy-time accumulated over the
	// interval (summed across the resources of each kind).
	DiesBusy     int
	ChannelsBusy int
	DieQueued    int
	ChanQueued   int
	// DieMaxQueue and ChanMaxQueue are the deepest scheduler queues seen
	// during the interval (fed by the resource hooks, so bursts between
	// sampling instants are not missed); DieWait and ChanWait sum the
	// queueing delay of waiters granted service during the interval.
	DieMaxQueue  int
	ChanMaxQueue int
	DieWait      time.Duration
	ChanWait     time.Duration
	DieBusy      time.Duration
	ChanBusy     time.Duration
	// PerChannelBusy is the per-channel interval busy time, index =
	// channel number (per-channel utilization = value / interval).
	PerChannelBusy []time.Duration

	// Block populations (the merge-state census).
	FreeBlocks    int
	ActiveBlocks  int
	InUseBlocks   int
	EmptyBlocks   int
	IDABlocks     int
	IDAValidPages int // valid pages living on IDA-reprogrammed wordlines
	MappedPages   int
	// RetiredBlocks counts grown-bad blocks out of service (cumulative
	// census at the sample instant, like the other block populations).
	RetiredBlocks int

	// Background busy time over the interval.
	GCBusy      time.Duration
	RefreshBusy time.Duration

	Activity
}

// csvHeader returns the column names; nch is the per-channel column count.
func csvHeader(nch int) []string {
	h := []string{
		"at_ns", "dev",
		"host_inflight", "host_queued",
		"dies_busy", "channels_busy", "die_queued", "chan_queued",
		"die_max_queue", "chan_max_queue", "die_wait_ns", "chan_wait_ns",
		"die_busy_ns", "chan_busy_ns",
		"free_blocks", "active_blocks", "inuse_blocks", "empty_blocks",
		"ida_blocks", "ida_valid_pages", "mapped_pages", "retired_blocks",
		"gc_busy_ns", "refresh_busy_ns",
		"reads_done", "writes_done",
		"read_pages", "senses", "ida_read_pages", "write_pages",
		"gc_jobs", "gc_moves", "refreshes", "refresh_moves",
		"adjusted_wls", "ida_refreshes", "fault_retries",
	}
	for c := 0; c < nch; c++ {
		h = append(h, fmt.Sprintf("ch%d_busy_ns", c))
	}
	return h
}

// appendRow serializes one sample; nch pads or truncates the per-channel
// columns to the header width.
func (s *Sample) appendRow(row []string, nch int) []string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	i := func(v int) string { return strconv.Itoa(v) }
	d := func(v time.Duration) string { return strconv.FormatInt(int64(v), 10) }
	row = append(row,
		d(s.At), i(s.Device),
		i(s.HostInFlight), i(s.HostQueued),
		i(s.DiesBusy), i(s.ChannelsBusy), i(s.DieQueued), i(s.ChanQueued),
		i(s.DieMaxQueue), i(s.ChanMaxQueue), d(s.DieWait), d(s.ChanWait),
		d(s.DieBusy), d(s.ChanBusy),
		i(s.FreeBlocks), i(s.ActiveBlocks), i(s.InUseBlocks), i(s.EmptyBlocks),
		i(s.IDABlocks), i(s.IDAValidPages), i(s.MappedPages), i(s.RetiredBlocks),
		d(s.GCBusy), d(s.RefreshBusy),
		u(s.ReadsDone), u(s.WritesDone),
		u(s.ReadPages), u(s.Senses), u(s.IDAReadPages), u(s.WritePages),
		u(s.GCJobs), u(s.GCMoves), u(s.Refreshes), u(s.RefreshMoves),
		u(s.AdjustedWLs), u(s.IDARefreshes), u(s.FaultRetries),
	)
	for c := 0; c < nch; c++ {
		var v time.Duration
		if c < len(s.PerChannelBusy) {
			v = s.PerChannelBusy[c]
		}
		row = append(row, d(v))
	}
	return row
}

// WriteCSV serializes the export's time series. Every value is an integer
// (durations in nanoseconds), so two deterministic runs produce
// byte-identical files — the property the CI determinism gate compares.
func (e *Export) WriteCSV(w io.Writer) error {
	if e == nil {
		return fmt.Errorf("telemetry: nil export")
	}
	nch := 0
	for i := range e.Samples {
		if n := len(e.Samples[i].PerChannelBusy); n > nch {
			nch = n
		}
	}
	bw := bufio.NewWriter(w)
	writeRow := func(row []string) {
		for i, f := range row {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(f)
		}
		bw.WriteByte('\n')
	}
	writeRow(csvHeader(nch))
	row := make([]string, 0, 37+nch)
	for i := range e.Samples {
		row = e.Samples[i].appendRow(row[:0], nch)
		writeRow(row)
	}
	return bw.Flush()
}

// WriteCSVFile writes the time series to a file.
func (e *Export) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
