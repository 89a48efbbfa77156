package experiments

import (
	"fmt"

	"idaflash"
)

// errorRates are the Figure 8 sweep points (IDA-E0 through IDA-E80).
var errorRates = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// figure8Systems returns the Figure 8 sweep's systems: the baseline, then
// IDA at each error rate in sweep order. Shared with the batch API's
// "figure8" sweep so the two enumerate identical memo keys.
func figure8Systems() []idaflash.System {
	systems := []idaflash.System{idaflash.Baseline()}
	for _, e := range errorRates {
		systems = append(systems, idaflash.IDA(e))
	}
	return systems
}

// Figure8 reproduces the headline result: mean read response time of the
// IDA systems at voltage-adjustment error rates 0%..80%, normalized to the
// baseline, per workload plus the geometric structure of the paper's bar
// chart (one row per workload, one column per error rate).
func Figure8(r *Runner) (*Table, error) {
	profiles := r.profiles()
	if err := r.RunAll(crossProduct(profiles, figure8Systems())); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "F8",
		Title:  "Normalized read response time (lower is better; baseline = 1.00)",
		Header: []string{"Name"},
		Notes: []string{
			"Paper: IDA-E0 improves reads by 31% and IDA-E20 by 28% on average; E50 still ~20%, E80 under 7%.",
		},
	}
	for _, e := range errorRates {
		t.Header = append(t.Header, fmt.Sprintf("E%d", int(e*100)))
	}
	sums := make([]float64, len(errorRates))
	for _, p := range profiles {
		base, err := r.Run(p, idaflash.Baseline())
		if err != nil {
			return nil, err
		}
		row := []string{p.Name}
		for i, e := range errorRates {
			res, err := r.Run(p, idaflash.IDA(e))
			if err != nil {
				return nil, err
			}
			norm := ratio(res.MeanReadResponse.Seconds(), base.MeanReadResponse.Seconds())
			sums[i] += norm
			row = append(row, f2(norm))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"average"}
	for _, s := range sums {
		avg = append(avg, f2(s/float64(len(profiles))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// TableIV reproduces the refresh overhead audit for IDA-Coding-E20: per
// refreshed 192-page block, the mean number of valid pages (the original
// refresh cost), plus the additional reads (post-adjustment verification)
// and additional writes (corruption write-backs) the IDA coding adds.
func TableIV(r *Runner) (*Table, error) {
	profiles := r.profiles()
	sys := idaflash.IDA(0.20)
	if err := r.RunAll(crossProduct(profiles, []idaflash.System{sys})); err != nil {
		return nil, err
	}
	pages := idaflash.PaperGeometry().PagesPerBlock()
	t := &Table{
		ID:     "T4",
		Title:  "Average per-block refresh overhead under IDA-Coding-E20",
		Header: []string{"Name", "ValidPages/Total", "AddReads", "AddWrites"},
		Notes: []string{
			fmt.Sprintf("Block = %d pages. Paper averages: 113 valid pages, 58 additional reads, 11.5 additional writes.", pages),
			"Additional reads are the post-adjustment verification reads; additional writes are corruption write-backs (~20% of reads at E20).",
		},
	}
	for _, p := range profiles {
		res, err := r.Run(p, sys)
		if err != nil {
			return nil, err
		}
		st := res.FTL
		if st.Refreshes == 0 {
			return nil, fmt.Errorf("experiments: %s never refreshed", p.Name)
		}
		// The scaled device keeps the paper's 192-page block shape, so
		// per-block figures are directly comparable.
		valid := float64(st.RefreshValidPages) / float64(st.Refreshes)
		var reads, writes float64
		if st.IDARefreshes > 0 {
			reads = float64(st.IDAVerifyReads) / float64(st.IDARefreshes)
			writes = float64(st.IDACorruptedWrites) / float64(st.IDARefreshes)
		}
		t.Rows = append(t.Rows, []string{
			p.Name,
			fmt.Sprintf("%s / %d", f1(valid), pages),
			f1(reads),
			f1(writes),
		})
	}
	return t, nil
}

// Figure10 reproduces the storage throughput comparison: IDA-Coding-E20
// throughput normalized to the baseline (higher is better).
func Figure10(r *Runner) (*Table, error) {
	profiles := r.profiles()
	sys := idaflash.IDA(0.20)
	if err := r.RunAll(crossProduct(profiles, []idaflash.System{idaflash.Baseline(), sys})); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "F10",
		Title:  "Normalized storage throughput under IDA-Coding-E20 (higher is better)",
		Header: []string{"Name", "Baseline MB/s", "IDA-E20 MB/s", "Normalized"},
		Notes:  []string{"Paper: all workloads gain, ~10% on average."},
	}
	sum := 0.0
	for _, p := range profiles {
		base, err := r.Run(p, idaflash.Baseline())
		if err != nil {
			return nil, err
		}
		res, err := r.Run(p, sys)
		if err != nil {
			return nil, err
		}
		norm := ratio(res.ThroughputMBps, base.ThroughputMBps)
		sum += norm
		t.Rows = append(t.Rows, []string{p.Name, f1(base.ThroughputMBps), f1(res.ThroughputMBps), f2(norm)})
	}
	t.Rows = append(t.Rows, []string{"average", "", "", f2(sum / float64(len(profiles)))})
	return t, nil
}

// BlockUsage reproduces the Section III-C accounting: the in-use block
// growth the IDA coding causes, relative to the device and to the workload
// footprint.
func BlockUsage(r *Runner) (*Table, error) {
	profiles := r.profiles()
	sys := idaflash.IDA(0.20)
	if err := r.RunAll(crossProduct(profiles, []idaflash.System{idaflash.Baseline(), sys})); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "AUX",
		Title:  "In-use block growth under IDA-Coding-E20 (Section III-C)",
		Header: []string{"Name", "Base peak", "IDA peak", "Growth/device", "PeakIDA", "IDA share"},
		Notes: []string{
			"Paper: in-use blocks grow by 2-4% of the device (14-30% of the workload footprint) and do not grow unboundedly.",
			"The scaled device is only ~2x the footprint (the paper's 512 GB device is 5-25x its workloads), so growth relative to the device reads higher here.",
			"IDA share is the peak fraction of in-use blocks that are IDA-reprogrammed; bounded because every IDA block is reclaimed on its next refresh cycle.",
		},
	}
	for _, p := range profiles {
		base, err := r.Run(p, idaflash.Baseline())
		if err != nil {
			return nil, err
		}
		res, err := r.Run(p, sys)
		if err != nil {
			return nil, err
		}
		growthBlocks := float64(res.PeakInUse - base.PeakInUse)
		share := 0.0
		if res.PeakInUse > 0 {
			share = float64(res.PeakIDA) / float64(res.PeakInUse)
		}
		t.Rows = append(t.Rows, []string{
			p.Name,
			fmt.Sprintf("%d", base.PeakInUse),
			fmt.Sprintf("%d", res.PeakInUse),
			pct(growthBlocks / float64(res.Usage.Total)),
			fmt.Sprintf("%d", res.PeakIDA),
			pct(share),
		})
	}
	return t, nil
}

// ratio guards against division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
