package layout

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzParse: arbitrary XML must never panic, Parse must return exactly what
// the encoding/xml path returns (the same layout, or an error with the same
// text), and accepted layouts must round-trip through Encode/Parse with the
// same widget count.
func FuzzParse(f *testing.F) {
	f.Add(`<LinearLayout id="@+id/root"><Button id="@+id/b" onClick="h"/></LinearLayout>`)
	f.Add(`<DrawerLayout id="@+id/d" visible="false"><fragment id="@+id/f" class="p.F"/></DrawerLayout>`)
	f.Add(`<a><b><c/></b></a>`)
	f.Add(`<<<`)
	f.Add(``)
	f.Add(`<LinearLayout id="@+id/a"><Button id="@+id/a"/></LinearLayout>`)
	// Encode output, and input the scanner must leave to encoding/xml.
	built := Root(TypeLinearLayout).ID("@id/root").Child(
		Root(TypeButton).ID("@id/go").Text("Go & <back>").OnClick("onGo"),
		Root(TypeEditText).ID("@id/name").Hint("name"),
		Root(TypeDrawerLayout).ID("@id/drawer").HiddenW().Child(
			Root(TypeFragment).ID("@id/frag").Class("p.Frag")),
	).BuildLayout("main")
	for _, l := range []*Layout{built, {Name: "leaf", Root: &Widget{Type: TypeTextView, Text: "plain"}}} {
		data, err := l.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(`<LinearLayout id="@id/r">]]></LinearLayout>`)
	f.Add(`<LinearLayout xmlns="urn:x" id="@id/r"/>`)
	f.Add(`<a:LinearLayout xmlns:a="urn:x" a:id="@id/r"/>`)
	f.Add(`<Button id="@id/b" text="&lt;&#65;&quot;"/>`)
	f.Add(`<LinearLayout id="@id/r"><!-- c --><Button id="@id/b"/></LinearLayout>`)
	f.Add("<LinearLayout id=\"@id/r\">\r\n  <Button id=\"@id/b\"/>\r\n</LinearLayout>\r\n")
	f.Add(`<Button id="@id/a"/><Button id="@id/b"/>`)
	f.Add(`<Button id="@id/a"/>trailing`)
	f.Fuzz(func(t *testing.T, src string) {
		l, err := Parse("fuzz", []byte(src))
		ref, refErr := parseXMLLayout("fuzz", []byte(src))
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(l, ref) {
			t.Fatalf("Parse and the encoding/xml path differ on %q:\nParse:    %v %s\nencoding: %v %s", src, err, dump(l), refErr, dump(ref))
		}
		if err != nil {
			return
		}
		data, err := l.Encode()
		if err != nil {
			t.Fatalf("accepted layout fails to encode: %v", err)
		}
		back, err := Parse("fuzz", data)
		if err != nil {
			t.Fatalf("encoded layout rejected: %v\n%s", err, data)
		}
		var n1, n2 int
		l.Walk(func(*Widget) bool { n1++; return true })
		back.Walk(func(*Widget) bool { n2++; return true })
		if n1 != n2 {
			t.Fatalf("widget count changed: %d vs %d", n1, n2)
		}
	})
}

// parseXMLLayout is Parse by the encoding/xml path alone: parseXML's tree,
// then Validate.
func parseXMLLayout(name string, data []byte) (*Layout, error) {
	root, err := parseXML(name, data)
	if err != nil {
		return nil, err
	}
	l := &Layout{Name: name, Root: root}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// dump renders a layout's widget tree for a failure message.
func dump(l *Layout) string {
	if l == nil {
		return "<nil>"
	}
	var w func(*Widget) string
	w = func(x *Widget) string {
		s := fmt.Sprintf("%+v", *x)
		for _, c := range x.Children {
			s += " " + w(c)
		}
		return "{" + s + "}"
	}
	return w(l.Root)
}
