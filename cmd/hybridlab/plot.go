package main

import (
	"fmt"
	"math"
	"strings"
)

// series is one named curve for the ASCII plotter.
type series struct {
	name   string
	marker byte
	xs, ys []float64
}

// asciiPlot renders one or more series into a fixed-size character
// grid — enough to eyeball the MIS curves in a terminal; use -csv for
// machine-readable output.
func asciiPlot(title, xlabel, ylabel string, w, h int, ss []series) string {
	if w < 20 {
		w = 72
	}
	if h < 8 {
		h = 20
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range ss {
		for i := range s.xs {
			minX = math.Min(minX, s.xs[i])
			maxX = math.Max(maxX, s.xs[i])
			minY = math.Min(minY, s.ys[i])
			maxY = math.Max(maxY, s.ys[i])
		}
	}
	if minX >= maxX {
		maxX = minX + 1
	}
	if minY >= maxY {
		maxY = minY + 1
	}
	// A little headroom.
	pad := float64(0.05 * (maxY - minY))
	minY -= pad
	maxY += pad

	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for _, s := range ss {
		for i := range s.xs {
			cx := int(math.Round((s.xs[i] - minX) / (maxX - minX) * float64(w-1)))
			cy := int(math.Round((s.ys[i] - minY) / (maxY - minY) * float64(h-1)))
			row := h - 1 - cy
			if row >= 0 && row < h && cx >= 0 && cx < w {
				grid[row][cx] = s.marker
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%10.4g ┤%s\n", maxY, string(grid[0]))
	for i := 1; i < h-1; i++ {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(grid[i]))
	}
	fmt.Fprintf(&b, "%10.4g ┤%s\n", minY, string(grid[h-1]))
	fmt.Fprintf(&b, "%10s └%s\n", "", strings.Repeat("─", w))
	fmt.Fprintf(&b, "%12s%-10.4g%*s%10.4g   (%s vs %s)\n", "", minX, w-20, "", maxX, ylabel, xlabel)
	legend := make([]string, 0, len(ss))
	for _, s := range ss {
		legend = append(legend, fmt.Sprintf("%c = %s", s.marker, s.name))
	}
	fmt.Fprintf(&b, "%12s%s\n", "", strings.Join(legend, "   "))
	return b.String()
}

// csvOut renders series as aligned CSV columns on a shared x column
// (the series must share identical x grids; plotters in this tool do).
func csvOut(xlabel string, ss []series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", xlabel)
	for _, s := range ss {
		fmt.Fprintf(&b, ",%s", s.name)
	}
	fmt.Fprintln(&b)
	if len(ss) == 0 {
		return b.String()
	}
	for i := range ss[0].xs {
		fmt.Fprintf(&b, "%g", ss[0].xs[i])
		for _, s := range ss {
			if i < len(s.ys) {
				fmt.Fprintf(&b, ",%g", s.ys[i])
			} else {
				fmt.Fprintf(&b, ",")
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// barChart renders grouped horizontal bars (Fig. 7 style).
func barChart(title string, groups []string, names []string, values map[string][]float64, width int) string {
	if width <= 0 {
		width = 48
	}
	maxV := 0.0
	//hybrid:nondet-ok commutative max fold; the scale is independent of visit order
	for _, vs := range values {
		for _, v := range vs {
			maxV = math.Max(maxV, v)
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for gi, g := range groups {
		fmt.Fprintf(&b, "%s\n", g)
		for _, n := range names {
			v := values[n][gi]
			bar := int(math.Round(v / maxV * float64(width)))
			fmt.Fprintf(&b, "  %-12s %6.2f %s\n", n, v, strings.Repeat("█", bar))
		}
	}
	return b.String()
}
