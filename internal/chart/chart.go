// Package chart renders the evaluation figures as ASCII bar charts and
// line plots for terminal output — the closest a CLI harness gets to the
// paper's matplotlib figures. Stdlib only, deterministic output, sized
// for an 80-column terminal.
package chart

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// GroupedBars renders groups of bars (e.g. baseline/12h/24h per ratio)
// with one row per (group, series) pair and a blank line between groups.
func GroupedBars(w io.Writer, title, unit string, groups []string, series []string, values [][]float64, maxWidth int) {
	fmt.Fprintln(w, title)
	var max float64
	for _, row := range values {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	if max <= 0 {
		max = 1
	}
	if maxWidth <= 0 {
		maxWidth = 40
	}
	labelW := 0
	for _, s := range series {
		if len(s) > labelW {
			labelW = len(s)
		}
	}
	for gi, g := range groups {
		fmt.Fprintf(w, "  %s\n", g)
		for si, s := range series {
			v := values[gi][si]
			n := int(math.Round(v / max * float64(maxWidth)))
			fmt.Fprintf(w, "    %-*s │%s %.2f%s\n", labelW, s, strings.Repeat("█", n), v, unit)
		}
	}
}

// LinePlot renders a y-over-x series as a height×width ASCII plot with
// min/max annotations — used for the Figure 5 prediction-error curve.
func LinePlot(w io.Writer, title string, xs []int64, ys []float64, width, height int) {
	fmt.Fprintln(w, title)
	if len(xs) == 0 || len(xs) != len(ys) {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 12
	}
	minY, maxY := ys[0], ys[0]
	for _, y := range ys {
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	n := len(ys)
	for col := 0; col < width; col++ {
		// Average the samples that fall into this column.
		lo := col * n / width
		hi := (col + 1) * n / width
		if hi <= lo {
			hi = lo + 1
		}
		if hi > n {
			hi = n
		}
		var sum float64
		for i := lo; i < hi; i++ {
			sum += ys[i]
		}
		v := sum / float64(hi-lo)
		row := int(math.Round((maxY - v) / (maxY - minY) * float64(height-1)))
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		grid[row][col] = '*'
	}
	fmt.Fprintf(w, "  %.4g ┐\n", maxY)
	for _, row := range grid {
		fmt.Fprintf(w, "       │%s\n", string(row))
	}
	fmt.Fprintf(w, "  %.4g ┴%s\n", minY, strings.Repeat("─", width))
	fmt.Fprintf(w, "       ticks %d … %d\n", xs[0], xs[len(xs)-1])
}
