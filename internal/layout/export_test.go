package layout

// The two parse paths, for the corpus test in package layout_test, which
// may import corpus.
var (
	ScanWidgets = scanWidgets
	ParseXML    = parseXML
)
