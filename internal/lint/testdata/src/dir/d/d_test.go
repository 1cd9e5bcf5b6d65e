package d

//powifi:bogus directives are validated in test files too // want "unknown powifi directive"
func helper() {}

// Exported is visible to the external test package only through the
// test-augmented d.
var Exported = helper
