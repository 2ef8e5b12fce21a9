package report

import (
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := NewTable("Fig 2", "robots", "fixed", "dynamic")
	tb.AddRow("4", "96.3", "91.8")
	tb.AddRow("16", "103.0", "92.0")
	out := tb.String()
	if !strings.Contains(out, "Fig 2") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "robots") {
		t.Fatalf("header line wrong: %q", lines[1])
	}
	if !strings.Contains(lines[4], "103.0") {
		t.Fatalf("row content wrong: %q", lines[4])
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "bbbb")
	tb.AddRow("wide-cell", "x")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Every line should be the same width (aligned columns).
	if len(lines[0]) != len(lines[2]) {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestTableMissingAndExtraCells(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("1")
	tb.AddRow("1", "2", "3", "4")
	out := tb.String()
	if !strings.Contains(out, "1") {
		t.Fatal("row lost")
	}
	if tb.Cell(0, 2) != "" {
		t.Fatal("missing cell should read empty")
	}
	if tb.Cell(1, 3) != "4" {
		t.Fatal("extra cell should be retained")
	}
	if tb.Cell(99, 0) != "" || tb.Cell(0, -1) != "" {
		t.Fatal("out-of-range access should read empty")
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("ignored", "name", "value")
	tb.AddRow("plain", "1")
	tb.AddRow("has,comma", "2")
	tb.AddRow(`has"quote`, "3")
	csv := tb.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if lines[0] != "name,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != `"has,comma",2` {
		t.Fatalf("comma quoting wrong: %q", lines[2])
	}
	if lines[3] != `"has""quote",3` {
		t.Fatalf("quote escaping wrong: %q", lines[3])
	}
}

func TestFormatters(t *testing.T) {
	if F(1.2345) != "1.23" {
		t.Errorf("F = %q", F(1.2345))
	}
	if F1(1.25) != "1.2" && F1(1.25) != "1.3" {
		t.Errorf("F1 = %q", F1(1.25))
	}
	if I(42) != "42" {
		t.Errorf("I = %q", I(42))
	}
	if U(7) != "7" {
		t.Errorf("U = %q", U(7))
	}
}

func TestNumRows(t *testing.T) {
	tb := NewTable("", "a")
	if tb.NumRows() != 0 {
		t.Fatal("fresh table has rows")
	}
	tb.AddRow("1")
	tb.AddRow("2")
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}
