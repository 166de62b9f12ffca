package statics

import (
	"fmt"
	"sort"

	"fragdroid/internal/aftm"
	"fragdroid/internal/apk"
	"fragdroid/internal/binc"
	"fragdroid/internal/callgraph"
)

// The extraction payload is a binc encoding of everything the static phase
// derived from the app. The App is deliberately absent — it is its own
// artifact kind in the store and is reattached by DecodeExtraction — and so
// is the jdcore lowering, which is a cheap deterministic function of the
// program and is recomputed on load. The AFTM, the call graph and the two
// reach sets ride as embedded blobs, each a binc payload of its own; the
// graph and reach blobs stay undecoded until their accessors' first use.
// Maps are written in sorted key order so the payload, and therefore the
// store checksum, is deterministic.

func encodeStrBoolMap(w *binc.Writer, m map[string]bool) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Str(k)
		w.Bool(m[k])
	}
}

func decodeStrBoolMap(r *binc.Reader) map[string]bool {
	n := r.Count(2) // a key and a bool
	m := make(map[string]bool, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Str()
		m[k] = r.Bool()
	}
	return m
}

func encodeStrSliceMap(w *binc.Writer, m map[string][]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Str(k)
		w.StrSlice(m[k])
	}
}

func decodeStrSliceMap(r *binc.Reader) map[string][]string {
	n := r.Count(2) // a key and a slice length
	m := make(map[string][]string, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Str()
		m[k] = r.StrSlice()
	}
	return m
}

func encodeReach(w *binc.Writer, rc *callgraph.Reach) {
	encodeStrBoolMap(w, rc.Activities)
	encodeStrBoolMap(w, rc.Fragments)
	encodeStrBoolMap(w, rc.Receivers)
	encodeStrBoolMap(w, rc.Methods)
	encodeStrSliceMap(w, rc.APIs)
}

func decodeReach(r *binc.Reader) *callgraph.Reach {
	return &callgraph.Reach{
		Activities: decodeStrBoolMap(r),
		Fragments:  decodeStrBoolMap(r),
		Receivers:  decodeStrBoolMap(r),
		Methods:    decodeStrBoolMap(r),
		APIs:       decodeStrSliceMap(r),
	}
}

// encodeReachBlob encodes the two reach sets as one self-contained blob.
func encodeReachBlob(static, launcher *callgraph.Reach) []byte {
	w := binc.NewWriter()
	encodeReach(w, static)
	encodeReach(w, launcher)
	return w.Bytes()
}

// decodeReachBlob is the inverse of encodeReachBlob.
func decodeReachBlob(data []byte) (static, launcher *callgraph.Reach, err error) {
	r, err := binc.NewReader(data)
	if err != nil {
		return nil, nil, err
	}
	static, launcher = decodeReach(r), decodeReach(r)
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return static, launcher, nil
}

func encodeLocation(w *binc.Writer, l WidgetLocation) {
	w.Str(l.Ref)
	w.Str(l.Type)
	w.Str(l.Layout)
	w.Str(l.Owner)
	w.Str(string(l.OwnerKind))
	w.Bool(l.Clickable)
	w.Bool(l.Input)
	w.Bool(l.InCode)
}

func decodeLocation(r *binc.Reader) WidgetLocation {
	l := WidgetLocation{Ref: r.Str(), Type: r.Str(), Layout: r.Str(), Owner: r.Str()}
	l.OwnerKind = OwnerKind(r.Str())
	l.Clickable = r.Bool()
	l.Input = r.Bool()
	l.InCode = r.Bool()
	return l
}

// EncodeExtraction serializes everything the static phase derived from the
// app, so a warm load can skip Extract entirely. It builds the call graph
// and the reach sets first if nothing has asked for them yet.
func EncodeExtraction(ex *Extraction) ([]byte, error) {
	model := aftm.EncodeModel(ex.Model)
	graph, err := ex.Graph().Encode()
	if err != nil {
		return nil, fmt.Errorf("statics: encode extraction: %w", err)
	}
	w := binc.NewWriter()
	w.Blob(model)
	w.Blob(graph)
	w.Blob(encodeReachBlob(ex.StaticReach(), ex.LauncherReach()))
	w.StrSlice(ex.EffectiveActivities)
	w.StrSlice(ex.EffectiveFragments)
	deps := ex.Deps
	if deps == nil {
		deps = &Dependencies{}
	}
	encodeStrSliceMap(w, deps.FragmentsOf)
	encodeStrSliceMap(w, deps.HostsOf)
	rd := ex.ResDeps
	if rd == nil {
		rd = &ResourceDeps{}
	}
	{
		keys := make([]string, 0, len(rd.ByWidget))
		for k := range rd.ByWidget {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Int(len(keys))
		for _, k := range keys {
			w.Str(k)
			locs := rd.ByWidget[k]
			w.Int(len(locs))
			for _, l := range locs {
				encodeLocation(w, l)
			}
		}
	}
	encodeStrSliceMap(w, rd.ByOwner)
	w.Int(len(ex.InputWidgets))
	for _, iw := range ex.InputWidgets {
		w.Str(iw.Ref)
		w.Str(iw.Type)
		w.Str(iw.Hint)
		w.Str(iw.Owner)
		w.Str(string(iw.Kind))
		w.Str(iw.Layout)
		w.Str(iw.Value)
	}
	encodeStrBoolMap(w, ex.UsesFragmentManager)
	encodeStrBoolMap(w, ex.SupportFM)
	encodeStrSliceMap(w, ex.Containers)
	encodeStrBoolMap(w, ex.TxnCommitted)
	encodeStrSliceMap(w, ex.SensitiveSites)
	encodeStrSliceMap(w, ex.LayoutsOf)
	return w.Bytes(), nil
}

// DecodeExtraction reconstructs an Extraction from EncodeExtraction output,
// attached to app (which must be the same bundle the extraction was computed
// from — the artifact store keys both by the same spec). The AFTM is decoded
// from its embedded encoding; the jdcore lowering, the call graph and the
// reach sets are deferred to their accessors' first use (warm replay needs
// none of them), and every map comes back make-initialized, mirroring
// Extract's fields.
func DecodeExtraction(data []byte, app *apk.App) (*Extraction, error) {
	r, err := binc.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("statics: decode extraction: %w", err)
	}
	modelBlob := r.Blob()
	graphBlob := r.Blob()
	reachBlob := r.Blob()
	if r.Err() != nil {
		return nil, fmt.Errorf("statics: decode extraction: %w", r.Err())
	}
	model, err := aftm.DecodeModel(modelBlob)
	if err != nil {
		return nil, fmt.Errorf("statics: decode extraction: %w", err)
	}
	ex := &Extraction{
		App:   app,
		Model: model,
		// Copied, not aliased: r.Blob() slices the full payload, and parking
		// an alias would pin every section of it until the blob decodes.
		graphBlob:           append([]byte(nil), graphBlob...),
		reachBlob:           append([]byte(nil), reachBlob...),
		EffectiveActivities: r.StrSlice(),
		EffectiveFragments:  r.StrSlice(),
	}
	ex.Deps = &Dependencies{
		FragmentsOf: decodeStrSliceMap(r),
		HostsOf:     decodeStrSliceMap(r),
	}
	ex.ResDeps = &ResourceDeps{ByWidget: make(map[string][]WidgetLocation)}
	if n := r.Count(2); n > 0 { // a key and a location count
		ex.ResDeps.ByWidget = make(map[string][]WidgetLocation, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.Str()
			nl := r.Count(8) // five strings and three bools
			locs := make([]WidgetLocation, 0, nl)
			for j := 0; j < nl && r.Err() == nil; j++ {
				locs = append(locs, decodeLocation(r))
			}
			ex.ResDeps.ByWidget[k] = locs
		}
	}
	ex.ResDeps.ByOwner = decodeStrSliceMap(r)
	if n := r.Count(7); n > 0 { // seven strings
		ex.InputWidgets = make([]InputWidget, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			iw := InputWidget{Ref: r.Str(), Type: r.Str(), Hint: r.Str(), Owner: r.Str()}
			iw.Kind = OwnerKind(r.Str())
			iw.Layout = r.Str()
			iw.Value = r.Str()
			ex.InputWidgets = append(ex.InputWidgets, iw)
		}
	}
	ex.UsesFragmentManager = decodeStrBoolMap(r)
	ex.SupportFM = decodeStrBoolMap(r)
	ex.Containers = decodeStrSliceMap(r)
	ex.TxnCommitted = decodeStrBoolMap(r)
	ex.SensitiveSites = decodeStrSliceMap(r)
	ex.LayoutsOf = decodeStrSliceMap(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("statics: decode extraction: %w", err)
	}
	return ex, nil
}
