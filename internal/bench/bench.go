// Package bench regenerates every table and figure of the CloudMonatt
// paper's evaluation (§7) plus the case-study figures (§4), as structured
// results with text rendering. Each Fig*/Table* function runs the relevant
// experiment end to end on the simulated cloud, in virtual time, and returns
// the same rows or series the paper plots. Artefacts lists them with the
// arguments they are published at: cmd/monatt-bench prints from it, the
// goldens under testdata/ pin its output at seed 1, and EXPERIMENTS.md
// carries those goldens. What an attestation costs on the wall clock is
// the repository benchmark's job (benchmark/), not this package's.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Artefact is one table or figure of the paper's evaluation.
type Artefact struct {
	// ID is the -exp value of cmd/monatt-bench and names the golden
	// testdata/<ID>.golden and the block EXPERIMENTS.md carries.
	ID string
	// Run regenerates the artefact at the seed and renders it.
	Run func(seed int64) (string, error)
}

// Artefacts is every artefact this package regenerates, in the order
// EXPERIMENTS.md presents them. The arguments written here (bits sent,
// windows, horizons) are the ones the goldens are pinned at.
var Artefacts = []Artefact{
	{"table1", func(seed int64) (string, error) { return render(Table1(seed)) }},
	{"fig4", func(seed int64) (string, error) { return Fig4(seed, 200).Render(), nil }},
	{"fig5", func(seed int64) (string, error) { return render(Fig5(seed, 2*time.Second)) }},
	{"fig6", func(seed int64) (string, error) { return render(Fig6(seed)) }},
	{"fig7", func(seed int64) (string, error) { return render(Fig7(seed)) }},
	{"fig9", func(seed int64) (string, error) { return render(Fig9(seed)) }},
	{"fig10", func(seed int64) (string, error) { return render(Fig10(seed, 2*time.Minute)) }},
	{"fig11", func(seed int64) (string, error) { return render(Fig11(seed)) }},
	{"ablation-scheduler", func(seed int64) (string, error) { return AblationScheduler(seed).Render(), nil }},
	{"ablation-bins", func(seed int64) (string, error) { return render(AblationBins(seed)) }},
	{"comparison", func(seed int64) (string, error) { return render(Comparison(seed)) }},
	{"rfa", func(seed int64) (string, error) { return render(RFA(seed)) }},
}

// render is the tail of a table entry: the result's text, or the error the
// experiment returned (a failed Fig6 or Fig10 carries a nil *Table, so the
// error is checked before Render runs).
func render[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// Series is one named sequence of (x, y) points.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Table is a labeled grid of values.
type Table struct {
	Title   string
	RowName string
	Rows    []string
	Cols    []string
	// Cells[row][col]
	Cells map[string]map[string]float64
	// Unit annotates the cell values ("x", "s", "%").
	Unit string
}

// NewTable allocates a table.
func NewTable(title, rowName, unit string, rows, cols []string) *Table {
	cells := make(map[string]map[string]float64, len(rows))
	for _, r := range rows {
		cells[r] = make(map[string]float64, len(cols))
	}
	return &Table{Title: title, RowName: rowName, Rows: rows, Cols: cols, Cells: cells, Unit: unit}
}

// Set stores one cell.
func (t *Table) Set(row, col string, v float64) {
	if t.Cells[row] == nil {
		t.Cells[row] = make(map[string]float64)
		t.Rows = append(t.Rows, row)
	}
	t.Cells[row][col] = v
}

// Render prints the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", t.Title, t.Unit)
	fmt.Fprintf(&b, "%-24s", t.RowName)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-24s", r)
		for _, c := range t.Cols {
			fmt.Fprintf(&b, "%12.3f", t.Cells[r][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderSeries prints series as aligned columns.
func RenderSeries(title string, series ...Series) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	for _, s := range series {
		fmt.Fprintf(&b, "  series %q (%s vs %s): %d points\n", s.Name, s.YLabel, s.XLabel, len(s.X))
		n := len(s.X)
		const maxShown = 40
		step := 1
		if n > maxShown {
			step = n / maxShown
		}
		for i := 0; i < n; i += step {
			fmt.Fprintf(&b, "    %10.3f %10.4f\n", s.X[i], s.Y[i])
		}
	}
	return b.String()
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }
