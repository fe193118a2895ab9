package chart

import (
	"bytes"
	"strings"
	"testing"
)

func TestGroupedBars(t *testing.T) {
	var buf bytes.Buffer
	GroupedBars(&buf, "fig2", " MB/s",
		[]string{"1:9"}, []string{"baseline", "24h"},
		[][]float64{{4.8, 7.2}}, 20)
	out := buf.String()
	if !strings.Contains(out, "1:9") || !strings.Contains(out, "baseline") {
		t.Fatalf("output = %q", out)
	}
	// The larger series fills the width.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "24h") && strings.Count(line, "█") != 20 {
			t.Fatalf("24h bar not full width: %q", line)
		}
	}
}

func TestLinePlotShapeAndBounds(t *testing.T) {
	xs := make([]int64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = int64(i)
		ys[i] = float64(100 - i) // decreasing line
	}
	var buf bytes.Buffer
	LinePlot(&buf, "loss", xs, ys, 40, 8)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + max + 8 rows + axis + range = 12 lines
	if len(lines) != 12 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.Contains(lines[1], "100") {
		t.Fatalf("max annotation missing: %q", lines[1])
	}
	if !strings.Contains(out, "ticks 0 … 99") {
		t.Fatal("x range missing")
	}
	// A decreasing series puts a '*' in the top-left region and the
	// bottom-right region.
	if !strings.Contains(lines[2], "*") {
		t.Fatal("top row empty for decreasing series")
	}
	if !strings.Contains(lines[9], "*") {
		t.Fatal("bottom row empty for decreasing series")
	}
}

func TestLinePlotEmpty(t *testing.T) {
	var buf bytes.Buffer
	LinePlot(&buf, "t", nil, nil, 10, 4)
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty plot must say so")
	}
}

func TestLinePlotConstantSeries(t *testing.T) {
	var buf bytes.Buffer
	LinePlot(&buf, "t", []int64{1, 2}, []float64{5, 5}, 10, 4)
	if !strings.Contains(buf.String(), "*") {
		t.Fatal("constant series must still plot")
	}
}
