package d_test

import "dir/d"

//powifi:rngsource-okay external test packages are checked as well // want "unknown powifi directive"
var _ = d.Exported
