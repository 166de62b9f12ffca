package manifest

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzParse: arbitrary XML must never panic, Parse must return exactly what
// the encoding/xml path returns (the same manifest, or an error with the
// same text), and an accepted manifest must encode to a document that
// parses back to it, up to the root's namespace.
func FuzzParse(f *testing.F) {
	b := NewBuilder("com.example.app").
		Permission("android.permission.INTERNET").
		Launcher("com.example.app.Main").
		ActivityWithAction("com.example.app.Search", "com.example.app.SEARCH").
		ExportedActivity("com.example.app.Share").
		Activity("com.example.app.Detail")
	m, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	m.Application.Label = "Example & <co>"
	m.Application.Receivers = []Receiver{{Name: "com.example.app.Boot", Filters: []IntentFilter{{
		Actions: []Action{{Name: "android.intent.action.BOOT_COMPLETED"}},
	}}}}
	m.Application.Activities[0].Filters = append(m.Application.Activities[0].Filters, IntentFilter{
		Actions:    []Action{{Name: ActionView}},
		Categories: []Category{{Name: CategoryBrowsable}},
		Data:       []Data{{URI: "example://open"}},
	})
	for _, mm := range []*Manifest{m, {Package: "p"}} {
		data, err := mm.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	// Input the scanner must leave to encoding/xml.
	f.Add(`<manifest package="p">]]></manifest>`)
	f.Add(`<manifest xmlns="urn:x" package="p"></manifest>`)
	f.Add(`<manifest package="p&amp;q"></manifest>`)
	f.Add(`<manifest package="p"><!-- c --><application></application></manifest>`)
	f.Add("<manifest package=\"p\">\r\n  <application></application>\r\n</manifest>\r\n")
	f.Add(`<manifest package="p"></manifest><manifest package="q"></manifest>`)
	f.Add(`<manifest package="p"></manifest>trailing`)
	f.Add(`<manifest package="p"><application><activity name="a"></activity></application><application><activity name="b"></activity></application></manifest>`)
	f.Add(`<manifest package="p"><application><activity name="a" exported="1"></activity></application></manifest>`)
	f.Add(`<manifest package="p"><uses-permission name="x"><activity name="a"/></uses-permission></manifest>`)
	f.Add(`<other package="p"/>`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse([]byte(src))
		ref, refErr := parseXML([]byte(src))
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(m, ref) {
			t.Fatalf("Parse and the encoding/xml path differ on %q:\nParse:    %v %+v\nencoding: %v %+v", src, err, m, refErr, ref)
		}
		if err != nil {
			return
		}
		data, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted manifest fails to encode: %v", err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("encoded manifest rejected: %v\n%s", err, data)
		}
		// Encode names the root from the struct tag, so the namespace an
		// xmlns attribute gave it does not come back.
		back.XMLName.Space = m.XMLName.Space
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the manifest:\n%+v\n%+v\n%s", m, back, data)
		}
	})
}
