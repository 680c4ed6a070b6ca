package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text. Cells are padded by rune
// count, so a cell holding "∅" or "·" is as wide as it prints.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(cell))
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", max(total-2, 4)) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	sb.WriteString("\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// speedup formats a ratio.
func speedup(base, improved time.Duration) string {
	if improved <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(improved))
}

// median returns the median of the samples: the middle one of an odd
// count, the mean of the two middle ones of an even count.
func median(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(samples))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive ratios.
func geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	logSum := 0.0
	for _, r := range ratios {
		if r <= 0 {
			return 0
		}
		logSum += math.Log(r)
	}
	return math.Exp(logSum / float64(len(ratios)))
}
