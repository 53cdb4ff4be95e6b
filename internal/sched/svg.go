package sched

import (
	"fmt"
	"io"
	"strings"
)

// palette cycles fill colors per task so adjacent tasks are
// distinguishable; colors are colorblind-safe Okabe–Ito hues.
var palette = []string{
	"#0072B2", "#E69F00", "#009E73", "#CC79A7",
	"#56B4E9", "#D55E00", "#F0E442", "#999999",
}

// WriteSVG renders the schedule as a self-contained 800 px wide SVG
// Gantt chart, one 28 px row per machine, with task rectangles labeled
// by ID and title, when non-empty, above the chart. It is the
// publication-quality counterpart of Gantt.
func (s *Schedule) WriteSVG(w io.Writer, title string) error {
	const width, rowH = 800, 28
	const marginLeft, marginTop, axisH = 48, 28, 22
	end := s.end()
	chartW := width - marginLeft - 8
	height := marginTop + s.M*rowH + axisH

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n",
		width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	if title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="16" font-size="13">%s</text>`+"\n",
			marginLeft, escapeXML(title))
	}

	ids, off := s.inStartOrder(nil, nil)
	scale := 0.0 // pixels per tick
	if end > 0 {
		scale = float64(chartW) / float64(end)
	}
	for i := 0; i < s.M; i++ {
		y := marginTop + i*rowH
		fmt.Fprintf(&b, `<text x="4" y="%d">m%d</text>`+"\n", y+rowH/2+4, i)
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>`+"\n",
			marginLeft, y+rowH, marginLeft+chartW, y+rowH)
		for _, j32 := range ids[off[i]:off[i+1]] {
			j, a := int(j32), s.Assignments[j32]
			x := marginLeft + int(float64(a.Start)*scale)
			wpx := int(float64(a.End-a.Start) * scale)
			if wpx < 1 {
				wpx = 1
			}
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#333" stroke-width="0.5" opacity="0.85"/>`+"\n",
				x, y+2, wpx, rowH-4, palette[j%len(palette)])
			if wpx >= 18 {
				fmt.Fprintf(&b, `<text x="%d" y="%d" fill="white">%d</text>`+"\n",
					x+3, y+rowH/2+4, j)
			}
		}
	}
	axisY := marginTop + s.M*rowH + 14
	fmt.Fprintf(&b, `<text x="%d" y="%d">0</text>`+"\n", marginLeft, axisY)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%.4g</text>`+"\n",
		marginLeft+chartW, axisY, end.Seconds())
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
