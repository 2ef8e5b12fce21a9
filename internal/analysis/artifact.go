// Validators for exported simulation artifacts — Chrome trace_event
// JSON, Prometheus text exposition, and time-series CSV — so invck and
// the tests (cmd/repairsim's artifact test among them) share one set of
// format checks instead of each CLI growing its own.

package analysis

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// CheckChromeTrace parses a Chrome trace_event JSON document and verifies
// the invariants chrome://tracing and Perfetto rely on: every event has a
// phase, non-metadata events carry timestamps, complete slices have
// non-negative durations, and at least one lane is named.
func CheckChromeTrace(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	lanes := 0
	for i, e := range doc.TraceEvents {
		if e.Ph == "" {
			return fmt.Errorf("event %d: missing ph", i)
		}
		if e.Ph != "M" && e.Ts == nil {
			return fmt.Errorf("event %d (%s): missing ts", i, e.Name)
		}
		if e.Ph == "X" && (e.Dur == nil || *e.Dur < 0) {
			return fmt.Errorf("event %d (%s): complete slice without valid dur", i, e.Name)
		}
		if e.Ph == "M" && e.Name == "thread_name" {
			lanes++
		}
	}
	if lanes == 0 {
		return fmt.Errorf("no named lanes")
	}
	return nil
}

// promLine matches one exposition-format sample:
// name{labels} value [timestamp].
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+( [0-9]+)?$`)

// CheckPrometheus verifies a Prometheus text exposition stream: every
// line is blank, a comment, or a well-formed sample, and at least one
// sample is present.
func CheckPrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	samples, lineNo := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			return fmt.Errorf("line %d: not a valid sample: %q", lineNo, line)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples")
	}
	return nil
}

// CheckCSV verifies a CSV stream is rectangular (every row has the
// header's field count), non-empty, and that the header contains every
// required column.
func CheckCSV(r io.Reader, required ...string) error {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return fmt.Errorf("empty file")
	}
	header := strings.Split(sc.Text(), ",")
	for _, want := range required {
		found := false
		for _, col := range header {
			if col == want {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("header lacks a %s column: %q", want, sc.Text())
		}
	}
	rows, lineNo := 0, 1
	for sc.Scan() {
		lineNo++
		if got := len(strings.Split(sc.Text(), ",")); got != len(header) {
			return fmt.Errorf("line %d: %d fields, header has %d", lineNo, got, len(header))
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("no data rows")
	}
	return nil
}
