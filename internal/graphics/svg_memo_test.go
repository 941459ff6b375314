package graphics

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// The SVG memo is checked against a scene without one: Snapshot copies the
// shapes but not the memo, so sc.Snapshot().SVG() is a full render of the
// scene as it stands.

func memoFixture() *Scene {
	sc := NewScene(300, 200)
	sc.Title = "memo"
	sc.MustAdd(&Shape{ID: "r", Kind: KindRect, X: 0, Y: 10, W: 60, H: 30, Label: "Idle", Badge: "b"})
	sc.MustAdd(&Shape{ID: "c", Kind: KindCircle, X: 100, Y: 10, W: 30, H: 30, Label: "On"})
	sc.MustAdd(&Shape{ID: "t", Kind: KindTriangle, X: 150, Y: 10, W: 30, H: 30, Z: 1})
	sc.MustAdd(&Shape{ID: "a", Kind: KindArrow, X: 60, Y: 25, X2: 100, Y2: 25, Label: "go"})
	sc.MustAdd(&Shape{ID: "l", Kind: KindLine, X: 0, Y: 0, X2: 5, Y2: 5})
	sc.MustAdd(&Shape{ID: "txt", Kind: KindText, X: 10, Y: 100, W: 50, H: 12, Label: "hello"})
	return sc
}

func TestSVGMemoInvalidation(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		mutate func(sc *Scene)
	}{
		{"X", func(sc *Scene) { sc.Get("r").X = 5 }},
		{"Y", func(sc *Scene) { sc.Get("c").Y = 11 }},
		{"W", func(sc *Scene) { sc.Get("t").W = 31 }},
		{"H", func(sc *Scene) { sc.Get("txt").H = 13 }},
		{"X2", func(sc *Scene) { sc.Get("a").X2 = 101 }},
		{"Y2", func(sc *Scene) { sc.Get("l").Y2 = 6 }},
		{"Label", func(sc *Scene) { sc.Get("c").Label = "Off" }},
		{"Style", func(sc *Scene) { sc.Get("l").Style.Dashed = true }},
		{"Style.Width", func(sc *Scene) { sc.Get("r").Style.Width = 2 }},
		{"Badge", func(sc *Scene) { sc.Get("r").Badge = "c" }},
		{"Highlight", func(sc *Scene) { sc.Get("t").Highlight = true }},
		{"Kind", func(sc *Scene) { sc.Get("r").Kind = KindCircle }},
		{"ID", func(sc *Scene) { sc.Get("l").ID = "l2" }},
		{"Z reorders", func(sc *Scene) { sc.Get("r").Z = 2 }},
		{"Add", func(sc *Scene) { sc.MustAdd(&Shape{ID: "new", Kind: KindRect, W: 5, H: 5, Z: -1}) }},
		{"Title", func(sc *Scene) { sc.Title = "other" }},
		{"FitContent W and H", func(sc *Scene) { sc.FitContent(500) }},
		{"+0 to -0", func(sc *Scene) { sc.Get("r").X = negZero }},
		{"NaN", func(sc *Scene) { sc.Get("c").X = math.NaN() }},
		{"ClearDynamic", func(sc *Scene) { sc.ClearDynamic() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := memoFixture()
			if err := sc.SetHighlight("c", true); err != nil {
				t.Fatal(err)
			}
			before := sc.SVG()
			tc.mutate(sc)
			for pass := 0; pass < 2; pass++ {
				got, want := sc.SVG(), sc.Snapshot().SVG()
				if got != want {
					t.Fatalf("pass %d: memoized frame differs from a full render:\n%s\nwant\n%s", pass, got, want)
				}
				if got == before {
					t.Fatalf("pass %d: mutation did not change the frame", pass)
				}
			}
		})
	}
}

func TestSVGMemoUnchangedFrame(t *testing.T) {
	sc := memoFixture()
	first := sc.SVG()
	if got := sc.SVG(); got != first || got != sc.Snapshot().SVG() {
		t.Fatal("unchanged scene rendered a different frame")
	}
	if n := testing.AllocsPerRun(100, func() { _ = sc.SVG() }); n != 0 {
		t.Errorf("unchanged frame allocated %v times, want 0", n)
	}
	// Writing a field back to the value it had is not a change.
	sc.Get("r").X = 1
	sc.Get("r").X = 0
	if n := testing.AllocsPerRun(10, func() { _ = sc.SVG() }); n != 0 {
		t.Errorf("restored field re-rendered the frame (%v allocs)", n)
	}
}

// shapeLeaves lists the index path of every exported leaf field of Shape,
// descending into structs, so a field added to Shape is mutated too.
func shapeLeaves() [][]int {
	var out [][]int
	var walk func(t reflect.Type, prefix []int)
	walk = func(t reflect.Type, prefix []int) {
		for i := 0; i < t.NumField(); i++ {
			path := append(append([]int(nil), prefix...), i)
			if f := t.Field(i); f.Type.Kind() == reflect.Struct {
				walk(f.Type, path)
			} else {
				out = append(out, path)
			}
		}
	}
	walk(reflect.TypeOf(Shape{}), nil)
	return out
}

// setLeaf writes a value drawn from a small pool chosen by pick, so
// sequences revisit earlier values (including -0 and NaN) often.
func setLeaf(v reflect.Value, pick uint8) {
	floats := []float64{0, math.Copysign(0, -1), 1, 2.5, 40, 1e21, math.NaN()}
	strs := []string{"", "a", "b", "<&>"}
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(floats[int(pick)%len(floats)])
	case reflect.String:
		v.SetString(strs[int(pick)%len(strs)])
	case reflect.Bool:
		v.SetBool(pick%2 == 1)
	case reflect.Int:
		v.SetInt(int64(pick%4) - 1)
	case reflect.Uint8:
		v.SetUint(uint64(pick % 7))
	default:
		panic("setLeaf: unhandled kind " + v.Kind().String())
	}
}

// Property: any sequence of direct field writes, reorders, adds and scene
// edits renders each frame exactly as a render without a memo.
func TestQuickSVGMemoMatchesFullRender(t *testing.T) {
	leaves := shapeLeaves()
	f := func(ops []uint32) bool {
		sc := memoFixture()
		added := 0
		for _, op := range ops {
			a, b, c := uint8(op), uint8(op>>8), uint8(op>>16)
			shapes := sc.Shapes()
			switch op >> 24 % 8 {
			case 0:
				sc.MustAdd(&Shape{ID: "n" + string(rune('a'+added)), Kind: ShapeKind(a % 6), X: float64(b), W: 4, H: 4, Z: int(c%3) - 1})
				added++
			case 1:
				sc.FitContent(float64(a % 20))
			case 2:
				sc.ClearDynamic()
			case 3:
				sc.Title = []string{"", "t", "<t>"}[a%3]
			default:
				s := shapes[int(a)%len(shapes)]
				setLeaf(reflect.ValueOf(s).Elem().FieldByIndex(leaves[int(b)%len(leaves)]), c)
			}
			if op>>27%4 != 0 { // skip some frames so several edits land in one
				if sc.SVG() != sc.Snapshot().SVG() {
					return false
				}
			}
		}
		return sc.SVG() == sc.Snapshot().SVG()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
