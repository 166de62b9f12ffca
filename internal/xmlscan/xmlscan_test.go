package xmlscan

import (
	"strings"
	"testing"
)

// tokens scans src to the end and renders what Next returned: "<name a=v>"
// for a Start ("<parent>name a=v>" below the root), "/" for an End, "." for
// Done and "!" for Outside.
func tokens(src string) string {
	s := New([]byte(src))
	var b strings.Builder
	for {
		switch s.Next() {
		case Start:
			b.WriteString("<")
			if p := s.Parent(); p != "" {
				b.WriteString(p + ">")
			}
			b.WriteString(s.Name())
			for _, a := range s.Attrs() {
				b.WriteString(" " + a.Name + "=" + a.Value)
			}
			b.WriteString(">")
		case End:
			b.WriteString("/")
		case Done:
			b.WriteString(".")
			return b.String()
		default:
			b.WriteString("!")
			return b.String()
		}
	}
}

func TestScanDialect(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{header + "\n<a/>\n", "<a>/."},
		{"<a></a>", "<a>/."},
		{"<a x=\"1\" y='2'\n\tz=\"it's\"/>", "<a x=1 y=2 z=it's>/."},
		{`<a v="]]> > '"/>`, `<a v=]]> > '>/.`},
		{"<a>\n  <b/>\n  <c.d-e_f id=\"\"><g/></c.d-e_f>\n</a>\n", "<a><a>b>/<a>c.d-e_f id=><c.d-e_f>g>///."},
		{`<xmlns/>`, "<xmlns>/."},
		{`<a xmlnsx="u"/>`, "<a xmlnsx=u>/."},
	} {
		if got := tokens(c.src); got != c.want {
			t.Errorf("%q: got %s, want %s", c.src, got, c.want)
		}
	}
}

// TestScanOutside checks that the scanner gives up on the constructs it
// leaves to encoding/xml, including the two edges differential fuzzing
// found: ]]> in character data and an xmlns attribute.
func TestScanOutside(t *testing.T) {
	for _, src := range []string{
		"",
		"  \n",
		header,
		`<?xml version="1.0"?><a/>`,
		` <?xml version="1.0" encoding="UTF-8"?><a/>`,
		"\ufeff<a/>",
		`<a>]]></a>`,
		`<a>text</a>`,
		`<a xmlns="urn:x"/>`,
		`<a xmlns:p="urn:x"/>`,
		`<p:a/>`,
		`<a p:x="1"/>`,
		`<a x="&amp;"/>`,
		`<a x="&#65;"/>`,
		`<a><!-- c --></a>`,
		`<a><![CDATA[x]]></a>`,
		`<!DOCTYPE a><a/>`,
		`<a/><?pi?>`,
		"<a>\r\n</a>",
		"<a x=\"1\"\r/>",
		"<a x=\"é\"/>",
		"<a x=\"\t\"/>",
		"<a x=\"\x00\"/>",
		"<é/>",
		`<a/><b/>`,
		`<a/>x`,
		`<a></a></a>`,
		`<a></b>`,
		`<a></a >`,
		`<a>`,
		`<a x="1"y="2"/>`,
		`<a x = "1"/>`,
		`<a x=1/>`,
		`<a x/>`,
		`<a x="1/>`,
		`<a x="<"/>`,
		`<1a/>`,
		`<-a/>`,
		`<a / >`,
		`</a>`,
	} {
		if got := tokens(src); !strings.HasSuffix(got, "!") {
			t.Errorf("%q: got %s, want Outside", src, got)
		}
	}
}

// TestScanCopiesInput checks that names and values do not alias the
// caller's bytes.
func TestScanCopiesInput(t *testing.T) {
	data := []byte(`<a id="x"/>`)
	s := New(data)
	if s.Next() != Start {
		t.Fatal("no start tag")
	}
	name, value := s.Name(), s.Attrs()[0].Value
	for i := range data {
		data[i] = 'z'
	}
	if name != "a" || value != "x" {
		t.Fatalf("name %q value %q changed with the input", name, value)
	}
}
