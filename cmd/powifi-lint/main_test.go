package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeModule lays out a one-package module m in a fresh directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRun drives the CLI in process: the exit status and stderr for a
// clean module, a typo'd directive in an external test file, and a
// directory outside any module.
func TestRun(t *testing.T) {
	const (
		goMod = "module m\n\ngo 1.24\n"
		src   = "package m\n\nfunc F() int { return 1 }\n"
	)
	cases := []struct {
		name  string
		files map[string]string
		code  int
		out   string // regexp stderr must match; "" means empty
	}{
		{
			name: "clean",
			files: map[string]string{
				"go.mod": goMod,
				"m.go":   src,
				"m_test.go": "package m_test\n\nimport \"m\"\n\n" +
					"//powifi:walltime-ok the directive is spelled right and reasoned\nvar _ = m.F\n",
			},
			code: 0,
		},
		{
			name: "typo in external test",
			files: map[string]string{
				"go.mod":    goMod,
				"m.go":      src,
				"m_test.go": "package m_test\n\nimport \"m\"\n\n//powifi:walltime-okay typo\nvar _ = m.F\n",
			},
			code: 2,
			out:  `m_test\.go:5:1: directive: unknown powifi directive "walltime-okay"`,
		},
		{
			name:  "no go.mod",
			files: map[string]string{"m.go": src},
			code:  1,
			out:   `no go\.mod found`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Chdir(writeModule(t, c.files))
			var stderr strings.Builder
			if code := run([]string{"./..."}, &stderr); code != c.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			got := stderr.String()
			if c.out == "" && got != "" || !regexp.MustCompile(c.out).MatchString(got) {
				t.Errorf("stderr = %q, want a match for %q", got, c.out)
			}
		})
	}
}
