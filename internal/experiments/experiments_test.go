package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"idaflash"
)

// The tests share one memoizing runner so baseline runs are reused across
// experiments, exactly as cmd/idabench does.
var (
	sharedOnce   sync.Once
	sharedRunner *Runner
)

func runner(t *testing.T) *Runner {
	t.Helper()
	sharedOnce.Do(func() {
		sharedRunner = NewRunner(Options{Requests: 6000})
	})
	return sharedRunner
}

// cell parses a numeric table cell (possibly with a % suffix).
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q: %v", s, err)
	}
	return v
}

// lastRow returns the table's final row (the "average" row by convention).
func lastRow(tb *Table) []string { return tb.Rows[len(tb.Rows)-1] }

func TestTableIIIShape(t *testing.T) {
	tb, err := TableIII(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		measured := cell(t, row[1])
		paper := cell(t, row[2])
		if measured < paper-5 || measured > paper+5 {
			t.Errorf("%s: read ratio %.1f vs paper %.1f", row[0], measured, paper)
		}
		// The invalid-MSB fraction must be nonzero for every workload:
		// it is the paper's entire opportunity.
		if inv := cell(t, row[7]); inv <= 0 {
			t.Errorf("%s: measured invalid-MSB fraction %.1f%%", row[0], inv)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	tb, err := Figure4(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 21 { // 11 + 9 workloads + average
		t.Fatalf("rows = %d, want 21", len(tb.Rows))
	}
	avg := lastRow(tb)
	msbInv := cell(t, avg[7])
	if msbInv < 5 || msbInv > 70 {
		t.Errorf("average MSB-invalid fraction = %.1f%%, want a material fraction", msbInv)
	}
	// Page types are roughly evenly distributed: LSB share near 1/3.
	for _, row := range tb.Rows[:len(tb.Rows)-1] {
		lsb := cell(t, row[1])
		if lsb < 15 || lsb > 55 {
			t.Errorf("%s: LSB read share %.1f%% implausible", row[0], lsb)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	tb, err := Figure8(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	avg := lastRow(tb)
	e0 := cell(t, avg[1])
	e20 := cell(t, avg[3])
	e80 := cell(t, avg[9])
	if e0 >= 1.0 {
		t.Errorf("IDA-E0 normalized response %.2f, want < 1", e0)
	}
	if e20 >= 1.0 {
		t.Errorf("IDA-E20 normalized response %.2f, want < 1", e20)
	}
	if e0 > e20+0.02 {
		t.Errorf("E0 (%.2f) should be at least as good as E20 (%.2f)", e0, e20)
	}
	if e20 > e80+0.05 {
		t.Errorf("E20 (%.2f) should be better than E80 (%.2f)", e20, e80)
	}
	// Per-workload: every workload benefits at E0.
	for _, row := range tb.Rows[:11] {
		if v := cell(t, row[1]); v > 1.05 {
			t.Errorf("%s: IDA-E0 normalized %.2f, regression", row[0], v)
		}
	}
}

func TestTableIVShape(t *testing.T) {
	tb, err := TableIV(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 11 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		valid := cell(t, strings.Split(row[1], "/")[0])
		reads := cell(t, row[2])
		writes := cell(t, row[3])
		if valid <= 0 || valid > 192 {
			t.Errorf("%s: valid pages %.1f out of range", row[0], valid)
		}
		if reads <= 0 || reads > valid {
			t.Errorf("%s: additional reads %.1f vs valid %.1f", row[0], reads, valid)
		}
		// At E20, write-backs are ~20% of verify reads.
		if reads > 5 {
			r := writes / reads
			if r < 0.05 || r > 0.40 {
				t.Errorf("%s: write/read ratio %.2f, want ~0.20", row[0], r)
			}
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	tb, err := Figure9(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	avg := lastRow(tb)
	at30 := cell(t, avg[1])
	at70 := cell(t, avg[5])
	if at30 >= 1.0 {
		t.Errorf("delta-tR=30us normalized %.2f, want improvement", at30)
	}
	if at70 >= at30 {
		t.Errorf("larger delta-tR should amplify the benefit: 30us=%.2f 70us=%.2f", at30, at70)
	}
}

func TestFigure10Shape(t *testing.T) {
	tb, err := Figure10(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	avg := lastRow(tb)
	if norm := cell(t, avg[3]); norm < 0.99 {
		t.Errorf("average normalized throughput %.2f, want >= ~1", norm)
	}
}

func TestFigure11Shape(t *testing.T) {
	tb, err := Figure11(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	avg := lastRow(tb)
	early := cell(t, avg[1])
	late := cell(t, avg[2])
	if early >= 1.0 {
		t.Errorf("early improvement missing: %.2f", early)
	}
	if late >= early+0.02 {
		t.Errorf("late lifetime should benefit at least as much: early=%.2f late=%.2f", early, late)
	}
}

func TestTableVShape(t *testing.T) {
	tb, err := TableV(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	avg := lastRow(tb)
	imp := cell(t, avg[1])
	if imp <= 0 {
		t.Errorf("MLC improvement %.1f%%, want positive", imp)
	}
	if imp > 60 {
		t.Errorf("MLC improvement %.1f%% implausibly large", imp)
	}
}

func TestFigure6Shape(t *testing.T) {
	tb, err := Figure6(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	// Analytic rows are exact: conventional 1/2/4/8, merged -/-/1/2.
	conv := tb.Rows[0]
	for j, want := range []string{"1", "2", "4", "8"} {
		if conv[j+1] != want {
			t.Errorf("conventional QLC senses[%d] = %s, want %s", j, conv[j+1], want)
		}
	}
	merged := tb.Rows[1]
	if merged[3] != "1" || merged[4] != "2" {
		t.Errorf("merged QLC senses = %v, want bit3=1 bit4=2", merged)
	}
	if len(tb.Rows) < 5 {
		t.Errorf("missing QLC device extension rows: %d", len(tb.Rows))
	}
}

func TestBlockUsageShape(t *testing.T) {
	tb, err := BlockUsage(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 11 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if growth := cell(t, row[3]); growth < -20 || growth > 40 {
			t.Errorf("%s: block growth %.1f%% implausible", row[0], growth)
		}
	}
}

func TestAllAndByID(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("experiments = %d, want 14", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Name == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := ByID("F8"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:     "X",
		Title:  "test",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var text, md bytes.Buffer
	if err := tb.Fprint(&text); err != nil {
		t.Fatal(err)
	}
	if err := tb.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "333") || !strings.Contains(text.String(), "note:") {
		t.Errorf("text rendering missing content:\n%s", text.String())
	}
	if !strings.Contains(md.String(), "| 333 | 4 |") || !strings.Contains(md.String(), "### X") {
		t.Errorf("markdown rendering missing content:\n%s", md.String())
	}
}

func TestRunnerMemoizationAndDeterminism(t *testing.T) {
	r := runner(t)
	p, err := idaflash.ProfileByName("proj_3", r.opts.Requests)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Run(p, idaflash.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(p, idaflash.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("memoized results differ")
	}
	// A fresh runner reproduces identical numbers.
	fresh := NewRunner(Options{Requests: r.opts.Requests})
	c, err := fresh.Run(p, idaflash.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanReadResponse != c.MeanReadResponse || a.FTL != c.FTL {
		t.Error("fresh runner diverged from cached results")
	}
}

func TestAblationsShape(t *testing.T) {
	tb, err := Ablations(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	avg := lastRow(tb)
	full := cell(t, avg[1])
	onlyInvalid := cell(t, avg[2])
	fast := cell(t, avg[3])
	if full >= 1.0 {
		t.Errorf("full IDA normalized %.2f, want improvement", full)
	}
	// Restricting IDA to already-invalid wordlines converts fewer reads,
	// so it cannot beat the full policy by much; it should still help.
	if onlyInvalid < full-0.03 {
		t.Errorf("only-invalid (%.2f) outperformed full policy (%.2f)", onlyInvalid, full)
	}
	if onlyInvalid >= 1.02 {
		t.Errorf("only-invalid normalized %.2f, want some improvement", onlyInvalid)
	}
	// A cheaper adjustment can only help.
	if fast > full+0.03 {
		t.Errorf("fast-adjust (%.2f) worse than full charge (%.2f)", fast, full)
	}
}

func TestWriteInterferenceShape(t *testing.T) {
	tb, err := WriteInterference(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		baseErases := cell(t, row[1])
		idaErases := cell(t, row[2])
		if baseErases <= 0 || idaErases <= 0 {
			t.Errorf("%s: phase 2 never erased (base %v, ida %v)", row[0], baseErases, idaErases)
		}
		// The IDA device pays at most a modest GC toll and never less
		// than ~none; wild swings would indicate broken accounting.
		if idaErases > baseErases*1.6 {
			t.Errorf("%s: IDA erases %.0f vs base %.0f, implausibly large toll", row[0], idaErases, baseErases)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{
		ID:     "X",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "two, quoted"}, {"3", "4"}},
	}
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "a,b\n") || !strings.Contains(got, `"two, quoted"`) {
		t.Errorf("csv output:\n%s", got)
	}
}

func TestCodingComparisonShape(t *testing.T) {
	tb, err := CodingComparison(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	// Eleven profiles plus the average row; one name column plus three
	// metric columns per registered coding scheme.
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	wantCols := 1 + 3*len(idaflash.CodingNames())
	if len(tb.Header) != wantCols {
		t.Fatalf("header has %d columns, want %d", len(tb.Header), wantCols)
	}
	avg := lastRow(tb)
	if len(avg) != wantCols {
		t.Fatalf("average row has %d columns, want %d", len(avg), wantCols)
	}
	// Column order follows sorted CodingNames(): ida, ilwc, randio.
	idaRead, idaPower := cell(t, avg[1]), cell(t, avg[3])
	ilwcRead, ilwcPower := cell(t, avg[4]), cell(t, avg[6])
	randioPower := cell(t, avg[9])
	// ilwc shares the Gray state map, so its latency matches ida's, but
	// its biased programmed-cell population must cost less power.
	if diff := ilwcRead - idaRead; diff > idaRead*0.01 || diff < -idaRead*0.01 {
		t.Errorf("ilwc read %.1f differs from ida %.1f beyond 1%%", ilwcRead, idaRead)
	}
	if ilwcPower >= idaPower {
		t.Errorf("ilwc power %.2f not below ida %.2f", ilwcPower, idaPower)
	}
	// Bijective maps under uniform data cost the same per page program,
	// but run-level power also folds in IDA voltage adjustments, whose
	// MeanMove comes from each scheme's own merge table — so randio only
	// lands near ida, not on it.
	if diff := randioPower - idaPower; diff > idaPower*0.2 || diff < -idaPower*0.2 {
		t.Errorf("randio power %.2f not within 20%% of ida %.2f", randioPower, idaPower)
	}
	for _, row := range tb.Rows {
		for i, c := range row[1:] {
			if v := cell(t, c); v < 0 {
				t.Fatalf("negative cell %d in row %s: %v", i, row[0], v)
			}
		}
	}
}

func TestVendor232Shape(t *testing.T) {
	tb, err := Vendor232(runner(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	avg := lastRow(tb)
	gray := cell(t, avg[1])
	vendor := cell(t, avg[2])
	if vendor >= 1.02 {
		t.Errorf("vendor-coding IDA normalized %.2f, want some improvement", vendor)
	}
	// Both codings benefit; the 2-3-2 layout has no 1-sensing page at
	// all, so merging (to 1-2 sensings) can help it even more than the
	// Gray coding despite its flatter variation.
	if gray >= 1.0 {
		t.Errorf("gray-coding IDA normalized %.2f, want improvement", gray)
	}
}
