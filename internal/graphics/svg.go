package graphics

import (
	"math"
	"strconv"
	"strings"
	"sync"
)

// svgBufPool recycles render buffers across frames: the animation loop
// renders every event batch (E5 measures frames per second), and without
// the pool each frame re-grows a fresh buffer through the whole document
// size. The only per-frame allocation left is the final string copy.
var svgBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16*1024)
	return &b
}}

// svgMemo is the retained part of the SVG renderer: the last frame, the
// header key it was rendered with, and one entry per shape in paint order.
type svgMemo struct {
	frame     string
	w, h      float64
	title     string
	highlight Style
	head      int // end of the header in frame
	shapes    []shapeMemo
}

// shapeMemo is a copy of a shape as last rendered and the end of its bytes
// in the frame; its bytes start where the previous shape's (or the
// header) end.
type shapeMemo struct {
	key Shape
	end int
}

// SVG renders the scene to a standalone SVG document. Output is
// deterministic for identical scenes (stable painter's order), which lets
// tests compare animation frames byte-for-byte.
//
// Shapes equal by value to their last rendered copy are not re-rendered:
// their bytes are copied from the previous frame, and an unchanged scene
// returns the previous string itself.
func (sc *Scene) SVG() string {
	order := sc.paintOrder()
	m := &sc.memo
	sameHeader := m.frame != "" && sameFloat(m.w, sc.W) && sameFloat(m.h, sc.H) && m.title == sc.Title
	if !sameStyle(m.highlight, HighlightStyle) {
		m.shapes = m.shapes[:0] // every highlighted shape renders differently
		m.highlight = HighlightStyle
	}
	if sameHeader && len(m.shapes) == len(order) {
		i := 0
		for i < len(order) && sameShape(&m.shapes[i].key, order[i]) {
			i++
		}
		if i == len(order) {
			return m.frame
		}
	}

	bp := svgBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	if sameHeader {
		buf = append(buf, m.frame[:m.head]...)
	} else {
		buf = appendHeaderSVG(buf, sc)
	}
	old, oldStart := m.frame, m.head
	m.head = len(buf)
	run := -1 // start in old of the pending run of unchanged shapes
	for i, s := range order {
		if i < len(m.shapes) && sameShape(&m.shapes[i].key, s) {
			if run < 0 {
				run = oldStart
			}
			oldStart = m.shapes[i].end
			m.shapes[i].end = len(buf) + oldStart - run
			continue
		}
		if run >= 0 {
			buf = append(buf, old[run:oldStart]...)
			run = -1
		}
		buf = appendShapeSVG(buf, s)
		if i < len(m.shapes) {
			oldStart = m.shapes[i].end
			m.shapes[i] = shapeMemo{*s, len(buf)}
		} else {
			m.shapes = append(m.shapes, shapeMemo{*s, len(buf)})
		}
	}
	if run >= 0 {
		buf = append(buf, old[run:oldStart]...)
	}
	buf = append(buf, "</svg>\n"...)

	m.frame = string(buf)
	m.w, m.h, m.title = sc.W, sc.H, sc.Title
	*bp = buf[:0]
	svgBufPool.Put(bp)
	return m.frame
}

func appendHeaderSVG(buf []byte, sc *Scene) []byte {
	buf = append(buf, `<svg xmlns="http://www.w3.org/2000/svg" width="`...)
	buf = appendG(buf, sc.W)
	buf = append(buf, `" height="`...)
	buf = appendG(buf, sc.H)
	buf = append(buf, `" viewBox="0 0 `...)
	buf = appendG(buf, sc.W)
	buf = append(buf, ' ')
	buf = appendG(buf, sc.H)
	buf = append(buf, "\">\n"...)
	buf = append(buf, `<defs><marker id="ah" markerWidth="10" markerHeight="8" refX="9" refY="4" orient="auto"><path d="M0,0 L10,4 L0,8 z" fill="#222222"/></marker></defs>`+"\n"...)
	if sc.Title != "" {
		buf = append(buf, `<title>`...)
		buf = appendXMLEscaped(buf, sc.Title)
		buf = append(buf, "</title>\n"...)
	}
	return buf
}

// sameFloat compares by bit pattern: -0 and +0 print differently, and a
// NaN never matches, so it simply re-renders.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameStyle(a, b Style) bool {
	return a.Stroke == b.Stroke && a.Fill == b.Fill && sameFloat(a.Width, b.Width) && a.Dashed == b.Dashed
}

// sameShape reports whether s renders exactly as its memo key k did. It
// compares every field, so a direct write to any of them is seen without
// the writer having to mark the shape dirty.
func sameShape(k, s *Shape) bool {
	return k.ID == s.ID && k.Kind == s.Kind && k.Label == s.Label && k.Badge == s.Badge &&
		k.Highlight == s.Highlight && k.Z == s.Z &&
		sameFloat(k.X, s.X) && sameFloat(k.Y, s.Y) && sameFloat(k.W, s.W) && sameFloat(k.H, s.H) &&
		sameFloat(k.X2, s.X2) && sameFloat(k.Y2, s.Y2) && sameStyle(k.Style, s.Style)
}

func effectiveStyle(s *Shape) Style {
	if s.Highlight {
		return HighlightStyle
	}
	return s.Style
}

// appendG appends v exactly as fmt's %g verb prints it.
func appendG(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendPaint appends the shared stroke/fill/width attribute run.
func appendPaint(b []byte, st Style) []byte {
	fill := st.Fill
	if fill == "" {
		fill = "none"
	}
	b = append(b, `stroke="`...)
	b = append(b, st.Stroke...)
	b = append(b, `" fill="`...)
	b = append(b, fill...)
	b = append(b, `" stroke-width="`...)
	b = appendG(b, st.Width)
	b = append(b, '"')
	if st.Dashed {
		b = append(b, ` stroke-dasharray="4,3"`...)
	}
	return b
}

// appendID appends ` id=` plus the quoted, escaped shape ID exactly as
// fmt's %q verb prints it.
func appendID(b []byte, id string) []byte {
	b = append(b, `id=`...)
	return strconv.AppendQuote(b, xmlEscape(id))
}

func appendShapeSVG(b []byte, s *Shape) []byte {
	st := effectiveStyle(s)
	switch s.Kind {
	case KindRect:
		b = append(b, `<rect `...)
		b = appendID(b, s.ID)
		b = append(b, ` x="`...)
		b = appendG(b, s.X)
		b = append(b, `" y="`...)
		b = appendG(b, s.Y)
		b = append(b, `" width="`...)
		b = appendG(b, s.W)
		b = append(b, `" height="`...)
		b = appendG(b, s.H)
		b = append(b, `" rx="3" `...)
		b = appendPaint(b, st)
		b = append(b, "/>\n"...)
	case KindCircle:
		cx, cy := s.Center()
		b = append(b, `<ellipse `...)
		b = appendID(b, s.ID)
		b = append(b, ` cx="`...)
		b = appendG(b, cx)
		b = append(b, `" cy="`...)
		b = appendG(b, cy)
		b = append(b, `" rx="`...)
		b = appendG(b, s.W/2)
		b = append(b, `" ry="`...)
		b = appendG(b, s.H/2)
		b = append(b, `" `...)
		b = appendPaint(b, st)
		b = append(b, "/>\n"...)
	case KindTriangle:
		b = append(b, `<polygon `...)
		b = appendID(b, s.ID)
		b = append(b, ` points="`...)
		b = appendG(b, s.X+s.W/2)
		b = append(b, ',')
		b = appendG(b, s.Y)
		b = append(b, ' ')
		b = appendG(b, s.X)
		b = append(b, ',')
		b = appendG(b, s.Y+s.H)
		b = append(b, ' ')
		b = appendG(b, s.X+s.W)
		b = append(b, ',')
		b = appendG(b, s.Y+s.H)
		b = append(b, `" `...)
		b = appendPaint(b, st)
		b = append(b, "/>\n"...)
	case KindArrow, KindLine:
		b = append(b, `<line `...)
		b = appendID(b, s.ID)
		b = append(b, ` x1="`...)
		b = appendG(b, s.X)
		b = append(b, `" y1="`...)
		b = appendG(b, s.Y)
		b = append(b, `" x2="`...)
		b = appendG(b, s.X2)
		b = append(b, `" y2="`...)
		b = appendG(b, s.Y2)
		b = append(b, `" `...)
		b = appendPaint(b, st)
		if s.Kind == KindArrow {
			b = append(b, ` marker-end="url(#ah)"`...)
		}
		b = append(b, "/>\n"...)
	case KindText:
		b = append(b, `<text `...)
		b = appendID(b, s.ID)
		b = append(b, ` x="`...)
		b = appendG(b, s.X)
		b = append(b, `" y="`...)
		b = appendG(b, s.Y+s.H)
		b = append(b, `" font-size="11" font-family="monospace" fill="`...)
		b = append(b, st.Stroke...)
		b = append(b, `">`...)
		b = appendXMLEscaped(b, s.Label)
		b = append(b, "</text>\n"...)
		return b // label already emitted as content
	}
	if s.Label != "" {
		cx, cy := s.Center()
		b = append(b, `<text x="`...)
		b = appendG(b, cx)
		b = append(b, `" y="`...)
		b = appendG(b, cy+4)
		b = append(b, `" font-size="11" font-family="monospace" text-anchor="middle" fill="#111111">`...)
		b = appendXMLEscaped(b, s.Label)
		b = append(b, "</text>\n"...)
	}
	if s.Badge != "" {
		cx, _ := s.Center()
		b = append(b, `<text x="`...)
		b = appendG(b, cx)
		b = append(b, `" y="`...)
		b = appendG(b, s.Y+s.H+11)
		b = append(b, `" font-size="9" font-family="monospace" text-anchor="middle" fill="#005500">`...)
		b = appendXMLEscaped(b, s.Badge)
		b = append(b, "</text>\n"...)
	}
	return b
}

// appendXMLEscaped appends s with XML special characters escaped,
// byte-identical to xmlEscape but without the intermediate string.
func appendXMLEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		case '\'':
			esc = "&apos;"
		default:
			continue
		}
		b = append(b, s[start:i]...)
		b = append(b, esc...)
		start = i + 1
	}
	return append(b, s[start:]...)
}

// xmlReplacer is built once: a strings.Replacer compiles its search
// structure on first use, which used to happen per call.
var xmlReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")

func xmlEscape(s string) string {
	return xmlReplacer.Replace(s)
}
