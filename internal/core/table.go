package core

import (
	"fmt"
	"strings"
)

// Table is a simple text table used by the experiment harness to print the
// rows and series the paper's figures report.
type Table struct {
	// ID is the experiment identifier (E1..E12, as listed by Experiments).
	ID string
	// Title describes what the table reproduces.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold the cell text, one slice per row.
	Rows [][]string
	// Notes are free-form lines printed after the table (paper-reported
	// values, calibration remarks).
	Notes []string
}

// AddRow appends one row; missing cells are padded with empty strings.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddNote appends a free-form note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// fmtSeconds formats a duration in seconds with two decimals.
func fmtSeconds(d float64) string { return fmt.Sprintf("%.2f s", d) }

// fmtMbps formats a bandwidth in megabits per second.
func fmtMbps(m float64) string { return fmt.Sprintf("%.0f Mbps", m) }
