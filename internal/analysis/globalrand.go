package analysis

import "strconv"

// GlobalrandAnalyzer flags imports of math/rand and math/rand/v2 outside
// internal/rng. The global generators (and even locally constructed
// rand.New sources) sit outside the experiment's seed tree: a draw from
// them is invisible to the fork-label discipline that makes every stream's
// consumption auditable, and the v1 global is additionally racy under the
// region-sharded loop. All randomness must come from a seeded rng.Stream
// fork (rng.New / Stream.Fork), so the one package allowed to touch the
// standard generators — internal/rng, if it ever wraps them — is exempt by
// import-path suffix.
var GlobalrandAnalyzer = &Analyzer{
	Name: "globalrand",
	Run:  runGlobalrand,
}

func runGlobalrand(pass *Pass) error {
	if pkgPathHasSuffix(pass.Pkg.Path(), "internal/rng") {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch path {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(),
					"import of %q outside internal/rng; draw from a seeded rng.Stream fork instead",
					path)
			}
		}
	}
	return nil
}
