package sensitive

import (
	"fmt"
	"sort"
)

// Event is one observed sensitive-API invocation. It mirrors the device
// monitor's event shape without importing the device package (the corpus
// depends on this package, and the device depends on corpus fixtures in its
// tests).
type Event struct {
	API        string
	Class      string
	InFragment bool
	Activity   string
}

// Mark is a Table II cell: how an app invokes a sensitive API.
type Mark int

const (
	// MarkNone means the API was not observed for the app.
	MarkNone Mark = iota
	// MarkActivity means invoked by Activity code only (Table II ●).
	MarkActivity
	// MarkFragment means invoked by Fragment code only (Table II ◐).
	MarkFragment
	// MarkBoth means invoked by both (Table II ⊙).
	MarkBoth
)

// String renders the Table II symbol (ASCII fallback forms are available via
// ASCII()).
func (m Mark) String() string {
	switch m {
	case MarkActivity:
		return "●"
	case MarkFragment:
		return "◐"
	case MarkBoth:
		return "⊙"
	default:
		return " "
	}
}

// ASCII renders a plain-text form: A, F, B or blank.
func (m Mark) ASCII() string {
	switch m {
	case MarkActivity:
		return "A"
	case MarkFragment:
		return "F"
	case MarkBoth:
		return "B"
	default:
		return "."
	}
}

// Usage aggregates the observations of one API within one app.
type Usage struct {
	API        string
	ByActivity bool
	ByFragment bool
	// Count is the raw number of observed invocation events.
	Count int
	// Classes lists the invoking classes, sorted.
	Classes []string
}

// Mark folds the attribution flags into a Table II cell.
func (u Usage) Mark() Mark {
	switch {
	case u.ByActivity && u.ByFragment:
		return MarkBoth
	case u.ByFragment:
		return MarkFragment
	case u.ByActivity:
		return MarkActivity
	default:
		return MarkNone
	}
}

// Collector accumulates sensitive events for one app run. Plug Observe into
// device.Options.Monitor.
type Collector struct {
	app string
	// rows holds the usages of the catalog APIs by Table II row (apiRank),
	// allocated on the first catalog event; a zero Count marks an API not
	// observed. Each usage keeps its classes sorted.
	rows []Usage
	// other holds the usages of APIs outside the catalog, allocated on the
	// first such event.
	other map[string]*Usage
}

// NewCollector returns a collector for the given app package.
func NewCollector(appPkg string) *Collector {
	return &Collector{app: appPkg}
}

// App returns the application package the collector belongs to.
func (c *Collector) App() string { return c.app }

// Observe records one sensitive event.
func (c *Collector) Observe(e Event) {
	var u *Usage
	if r, ok := apiRank[e.API]; ok {
		if c.rows == nil {
			c.rows = make([]Usage, len(catalogRows))
			// Most APIs are invoked by one class: its slot comes from one
			// shared array, and only a second class allocates.
			first := make([]string, len(catalogRows))
			for r := range c.rows {
				c.rows[r].Classes = first[r : r : r+1]
			}
		}
		u = &c.rows[r]
	} else {
		if c.other == nil {
			c.other = make(map[string]*Usage)
		}
		if u = c.other[e.API]; u == nil {
			u = &Usage{}
			c.other[e.API] = u
		}
	}
	u.API = e.API
	u.Count++
	if e.InFragment {
		u.ByFragment = true
	} else {
		u.ByActivity = true
	}
	i := 0 // an API has few classes: a linear scan finds the slot
	for i < len(u.Classes) && u.Classes[i] < e.Class {
		i++
	}
	if i == len(u.Classes) || u.Classes[i] != e.Class {
		u.Classes = append(u.Classes, "")
		copy(u.Classes[i+1:], u.Classes[i:])
		u.Classes[i] = e.Class
	}
}

// Has reports whether the API has been observed at least once.
func (c *Collector) Has(api string) bool {
	if r, ok := apiRank[api]; ok {
		return c.rows != nil && c.rows[r].Count > 0
	}
	_, ok := c.other[api]
	return ok
}

// Usages returns the aggregated per-API usages in Table II row order.
func (c *Collector) Usages() []Usage {
	n := len(c.other)
	for i := range c.rows {
		if c.rows[i].Count > 0 {
			n++
		}
	}
	out := make([]Usage, 0, n)
	for _, u := range c.rows {
		if u.Count > 0 {
			u.Classes = append([]string(nil), u.Classes...)
			out = append(out, u)
		}
	}
	if len(c.other) == 0 {
		return out
	}
	// APIs outside the catalog may share a category with catalog rows, so
	// they take SortAPIs' order among them.
	for _, u := range c.other {
		cp := *u
		cp.Classes = append([]string(nil), u.Classes...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return apiLess(out[i].API, out[j].API) })
	return out
}

// Matrix is the cross-application view behind Table II.
type Matrix struct {
	// Apps are the column packages, in insertion order.
	Apps []string
	// APIs are the row keys in Table II order.
	APIs []string
	// cells maps (api, app) to the mark.
	cells map[cell]Mark
}

// cell keys one Table II cell.
type cell struct{ api, app string }

// NewMatrix builds a matrix from per-app collectors.
func NewMatrix(collectors []*Collector) *Matrix {
	m := &Matrix{cells: make(map[cell]Mark)}
	seen := make([]bool, len(catalogRows))
	var other map[string]bool
	for _, c := range collectors {
		m.Apps = append(m.Apps, c.app)
		for r := range c.rows {
			if u := &c.rows[r]; u.Count > 0 {
				seen[r] = true
				m.cells[cell{u.API, c.app}] = u.Mark()
			}
		}
		for api, u := range c.other {
			if other == nil {
				other = make(map[string]bool)
			}
			other[api] = true
			m.cells[cell{api, c.app}] = u.Mark()
		}
	}
	for r, ok := range seen {
		if ok {
			m.APIs = append(m.APIs, catalogRows[r])
		}
	}
	if len(other) > 0 {
		for api := range other {
			m.APIs = append(m.APIs, api)
		}
		SortAPIs(m.APIs)
	}
	return m
}

// Cell returns the mark for (api, app).
func (m *Matrix) Cell(api, app string) Mark { return m.cells[cell{api, app}] }

// Stats are the §VII-C aggregates. An invocation relation is one (app, API,
// component-kind) triple: a Both cell contributes two relations, an
// Activity-only or Fragment-only cell one. FragmentShare is the fraction of
// relations attributed to Fragments ("the API invocations associated with
// Fragments account for 49% of the total invocations"); FragmentOnlyShare is
// the fraction visible *only* from Fragments — the lower bound of what
// Activity-level tools miss ("at least 9.6%").
type Stats struct {
	DistinctAPIs      int
	TotalInvocations  int
	FragmentRelations int
	FragmentOnly      int
	FragmentShare     float64
	FragmentOnlyShare float64
}

// ComputeStats derives the aggregates of the matrix.
func (m *Matrix) ComputeStats() Stats {
	var s Stats
	s.DistinctAPIs = len(m.APIs)
	for _, api := range m.APIs {
		for _, app := range m.Apps {
			switch m.Cell(api, app) {
			case MarkActivity:
				s.TotalInvocations++
			case MarkFragment:
				s.TotalInvocations++
				s.FragmentRelations++
				s.FragmentOnly++
			case MarkBoth:
				s.TotalInvocations += 2
				s.FragmentRelations++
			}
		}
	}
	if s.TotalInvocations > 0 {
		s.FragmentShare = float64(s.FragmentRelations) / float64(s.TotalInvocations)
		s.FragmentOnlyShare = float64(s.FragmentOnly) / float64(s.TotalInvocations)
	}
	return s
}

// String summarizes the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%d sensitive APIs, %d invocation relations, %.0f%% fragment-associated, %.1f%% fragment-only",
		s.DistinctAPIs, s.TotalInvocations, 100*s.FragmentShare, 100*s.FragmentOnlyShare)
}
