package experiments

// Artifact is one table or figure of the paper's evaluation and the driver
// that regenerates it.
type Artifact struct {
	// ID selects the artifact: "7c".."7n" and "8a".."8h" for figures,
	// "table2" and "table3" for tables, "ablation" for the Section 4.2
	// optimization ablation.
	ID  string
	Run func(Config) (*Table, error)
}

// Artifacts lists every artifact in the paper's order. cmd/experiments
// selects from it by ID.
var Artifacts = []Artifact{
	{"7c", func(c Config) (*Table, error) { return c.ClosenessVaryVq(Amazon) }},
	{"7d", func(c Config) (*Table, error) { return c.ClosenessVaryVq(YouTube) }},
	{"7e", func(c Config) (*Table, error) { return c.ClosenessVaryVq(Synthetic) }},
	{"7f", func(c Config) (*Table, error) { return c.ClosenessVaryV(Amazon) }},
	{"7g", func(c Config) (*Table, error) { return c.ClosenessVaryV(YouTube) }},
	{"7h", func(c Config) (*Table, error) { return c.ClosenessVaryV(Synthetic) }},
	{"7i", func(c Config) (*Table, error) { return c.SubgraphsVaryVq(Amazon) }},
	{"7j", func(c Config) (*Table, error) { return c.SubgraphsVaryVq(YouTube) }},
	{"7k", func(c Config) (*Table, error) { return c.SubgraphsVaryVq(Synthetic) }},
	{"7l", func(c Config) (*Table, error) { return c.SubgraphsVaryV(Amazon) }},
	{"7m", func(c Config) (*Table, error) { return c.SubgraphsVaryV(YouTube) }},
	{"7n", func(c Config) (*Table, error) { return c.SubgraphsVaryV(Synthetic) }},
	{"8a", func(c Config) (*Table, error) { return c.PerfVaryVq(Amazon) }},
	{"8b", func(c Config) (*Table, error) { return c.PerfVaryVq(YouTube) }},
	{"8c", func(c Config) (*Table, error) { return c.PerfVaryVq(Synthetic) }},
	{"8d", Config.PerfVaryAlphaQ},
	{"8e", func(c Config) (*Table, error) { return c.PerfVaryV(Amazon) }},
	{"8f", func(c Config) (*Table, error) { return c.PerfVaryV(YouTube) }},
	{"8g", func(c Config) (*Table, error) { return c.PerfVaryV(Synthetic) }},
	{"8h", Config.PerfVaryAlpha},
	{"table2", Config.Table2},
	{"table3", Config.Table3Sizes},
	{"ablation", func(c Config) (*Table, error) { return c.Ablation(Synthetic) }},
}

// ArtifactByID returns the artifact with the given ID.
func ArtifactByID(id string) (Artifact, bool) {
	for _, a := range Artifacts {
		if a.ID == id {
			return a, true
		}
	}
	return Artifact{}, false
}
