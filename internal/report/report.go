// Package report renders experiment outputs as aligned ASCII tables and
// CSV, the formats the cmd tools and EXPERIMENTS.md use.
package report

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a titled grid of string cells with a header row.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns an empty table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; missing cells render empty, extra cells are kept.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(cells))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the cell at (row, col), or "" when out of range.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.rows[row]) {
		return ""
	}
	return t.rows[row][col]
}

// F formats a float for table cells with sensible precision.
func F(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// F1 formats a float with one decimal.
func F1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// I formats an int for table cells.
func I(v int) string { return strconv.Itoa(v) }

// U formats an unsigned counter for table cells.
func U(v uint64) string { return strconv.FormatUint(v, 10) }

// String renders the table as an aligned ASCII block.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := range t.Columns {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-style CSV (header + rows). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.Columns {
			if i > 0 {
				b.WriteByte(',')
			}
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
