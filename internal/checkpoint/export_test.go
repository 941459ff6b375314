package checkpoint

// FastDecodes reports whether Unmarshal reads raw in one pass, without
// handing it to encoding/json.
func FastDecodes(raw []byte) bool {
	d := decoder{b: raw, ok: true}
	d.checkpoint()
	return d.ok
}
