// Package xmlscan reads the plain XML dialect that the layout and manifest
// encoders write, in one pass and without reflection. Element names and
// attribute values come back as substrings of one copy of the document.
//
// The dialect is:
//
//   - an optional header, exactly <?xml version="1.0" encoding="UTF-8"?>,
//     at the start of the document;
//   - one root element, with whitespace (space, tab, newline) before it,
//     between elements and after it;
//   - element and attribute names of ASCII letters, digits, '_', '.' and
//     '-' that start with a letter or '_', so no namespace prefix;
//   - attributes written name="value" or name='value', each after
//     whitespace, whose values hold printable ASCII other than '<' and '&';
//   - self-closing tags and end tags that repeat the start tag's name.
//
// Anything else is outside the dialect: character data other than
// whitespace, entities and character references, comments, CDATA,
// processing instructions, DOCTYPE, xmlns attributes, carriage returns,
// non-ASCII and control bytes, and malformed input. The scanner reports it
// as Outside and the caller decodes the document with encoding/xml instead.
// Every document inside the dialect is well-formed XML, and encoding/xml
// reads it to the same names and values.
package xmlscan

import "strings"

// header is the one XML declaration the dialect accepts.
const header = `<?xml version="1.0" encoding="UTF-8"?>`

// Kind is what Next found.
type Kind uint8

const (
	// Outside: the document leaves the dialect here. The scanner reports
	// Outside from then on.
	Outside Kind = iota
	// Start: an element starts; Name and Attrs describe it.
	Start
	// End: the innermost open element ends, by an end tag or because its
	// start tag closed itself.
	End
	// Done: the root element has ended and only whitespace follows.
	Done
)

// Attr is one attribute of a start tag.
type Attr struct {
	Name, Value string
}

// Scanner reads one document token by token.
type Scanner struct {
	src      string
	pos      int
	open     []string // names of the open elements, outermost first
	name     string
	attrs    []Attr
	selfEnd  bool // the last start tag closed itself; its End comes next
	rootSeen bool
	outside  bool
}

// New starts a scan of data. The scanner copies data once, so the names and
// values it returns do not change when data does.
func New(data []byte) *Scanner {
	s := &Scanner{src: string(data), open: make([]string, 0, 8)}
	if strings.HasPrefix(s.src, "<?") {
		if !strings.HasPrefix(s.src, header) {
			s.outside = true
		}
		s.pos = len(header)
	}
	return s
}

// Name returns the element name of the last Start.
func (s *Scanner) Name() string { return s.name }

// Parent returns the name of the element that encloses the last Start, or
// "" if that was the root.
func (s *Scanner) Parent() string {
	if n := len(s.open); n > 1 {
		return s.open[n-2]
	}
	return ""
}

// Attrs returns the attributes of the last Start in document order. The
// slice is reused by the next call to Next.
func (s *Scanner) Attrs() []Attr { return s.attrs }

// Next advances to the next start tag, element end or document end.
func (s *Scanner) Next() Kind {
	if s.outside {
		return Outside
	}
	if s.selfEnd {
		s.selfEnd = false
		s.open = s.open[:len(s.open)-1]
		return End
	}
	s.skipSpace()
	if s.pos == len(s.src) {
		if len(s.open) == 0 && s.rootSeen {
			return Done
		}
		return s.leave()
	}
	if s.src[s.pos] != '<' || len(s.open) == 0 && s.rootSeen {
		return s.leave()
	}
	s.pos++
	if s.pos < len(s.src) && s.src[s.pos] == '/' {
		s.pos++
		name := s.scanName()
		if len(s.open) == 0 || name != s.open[len(s.open)-1] || !s.consume('>') {
			return s.leave()
		}
		s.open = s.open[:len(s.open)-1]
		return End
	}
	return s.startTag()
}

// startTag reads a start tag after its '<'.
func (s *Scanner) startTag() Kind {
	s.name = s.scanName()
	if s.name == "" {
		return s.leave()
	}
	s.attrs = s.attrs[:0]
	for {
		spaced := s.skipSpace()
		if s.pos == len(s.src) {
			return s.leave()
		}
		switch s.src[s.pos] {
		case '>':
			s.pos++
			return s.opened()
		case '/':
			s.pos++
			if !s.consume('>') {
				return s.leave()
			}
			s.selfEnd = true
			return s.opened()
		}
		name := s.scanName()
		if !spaced || name == "" || name == "xmlns" || !s.consume('=') {
			return s.leave()
		}
		value, ok := s.scanValue()
		if !ok {
			return s.leave()
		}
		s.attrs = append(s.attrs, Attr{Name: name, Value: value})
	}
}

// opened records that the start tag just read opened an element.
func (s *Scanner) opened() Kind {
	s.open = append(s.open, s.name)
	s.rootSeen = true
	return Start
}

// leave marks the document as outside the dialect.
func (s *Scanner) leave() Kind {
	s.outside = true
	return Outside
}

// skipSpace skips spaces, tabs and newlines and reports whether there were
// any.
func (s *Scanner) skipSpace() bool {
	start := s.pos
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\n':
			s.pos++
			continue
		}
		break
	}
	return s.pos > start
}

// consume skips c if it comes next.
func (s *Scanner) consume(c byte) bool {
	if s.pos < len(s.src) && s.src[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// scanName reads a name, or returns "" if none starts here.
func (s *Scanner) scanName() string {
	start := s.pos
	for s.pos < len(s.src) && nameByte(s.src[s.pos], s.pos == start) {
		s.pos++
	}
	return s.src[start:s.pos]
}

// nameByte reports whether c may stand in a name; first says whether it
// would be the name's first byte.
func nameByte(c byte, first bool) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' ||
		!first && ('0' <= c && c <= '9' || c == '.' || c == '-')
}

// scanValue reads a quoted attribute value.
func (s *Scanner) scanValue() (string, bool) {
	if s.pos == len(s.src) || s.src[s.pos] != '"' && s.src[s.pos] != '\'' {
		return "", false
	}
	quote := s.src[s.pos]
	s.pos++
	start := s.pos
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		if c == quote {
			s.pos++
			return s.src[start : s.pos-1], true
		}
		if c < ' ' || c > '~' || c == '<' || c == '&' {
			return "", false
		}
		s.pos++
	}
	return "", false
}
