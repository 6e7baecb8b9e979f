package profile

import (
	"encoding/json"

	"redi/internal/coverage"
	"redi/internal/dataset"
)

// Label is a dataset nutritional label in the spirit of MithraLabel: the
// machine-readable summary a data consumer inspects before deciding whether
// the dataset fits their task (Scope-of-use Augmentation, tutorial §2.5).
type Label struct {
	Rows    int             `json:"rows"`
	Columns []ColumnProfile `json:"columns"`

	// GroupCounts are intersectional group sizes over the sensitive
	// attributes.
	GroupCounts map[string]int `json:"group_counts"`
	// UncoveredPatterns lists the maximal uncovered patterns at the
	// label's coverage threshold, rendered with attribute names.
	UncoveredPatterns []string `json:"uncovered_patterns"`
	CoverageThreshold int      `json:"coverage_threshold"`

	// AttributeBias ranks feature attributes by association with the
	// sensitive attributes (least biased first).
	AttributeBias []AttrBias `json:"attribute_bias"`
	// SensitiveTargetFDs lists approximate FDs from sensitive
	// attributes to the target — a red flag for label bias.
	SensitiveTargetFDs []FD `json:"sensitive_target_fds"`
	// Missingness maps "attr|group" to the group's null fraction for
	// attributes with any nulls.
	Missingness map[string]float64 `json:"missingness"`
}

// LabelConfig parameterizes label construction.
type LabelConfig struct {
	// Sensitive attributes; defaults to the schema's Sensitive role.
	Sensitive []string
	// Target attribute; defaults to the schema's single Target.
	Target string
	// Positive label value (default "pos").
	Positive string
	// CoverageThreshold for the MUP widget (default max(10, rows/100)).
	CoverageThreshold int
	// FDEpsilon for approximate FDs (default 0.05).
	FDEpsilon float64
}

// BuildLabel assembles the nutritional label of d.
func BuildLabel(d *dataset.Dataset, cfg LabelConfig) *Label {
	if cfg.Sensitive == nil {
		cfg.Sensitive = d.Schema().ByRole(dataset.Sensitive)
	}
	if cfg.Target == "" {
		if targets := d.Schema().ByRole(dataset.Target); len(targets) == 1 {
			cfg.Target = targets[0]
		}
	}
	if cfg.Positive == "" {
		cfg.Positive = "pos"
	}
	if cfg.CoverageThreshold == 0 {
		cfg.CoverageThreshold = d.NumRows() / 100
		if cfg.CoverageThreshold < 10 {
			cfg.CoverageThreshold = 10
		}
	}
	if cfg.FDEpsilon == 0 {
		cfg.FDEpsilon = 0.05
	}

	l := &Label{
		Rows:              d.NumRows(),
		Columns:           Profile(d),
		GroupCounts:       map[string]int{},
		CoverageThreshold: cfg.CoverageThreshold,
		Missingness:       map[string]float64{},
	}
	if len(cfg.Sensitive) > 0 && d.NumRows() > 0 {
		groups := d.GroupBy(cfg.Sensitive...)
		for gid, c := range groups.Counts {
			l.GroupCounts[string(groups.Key(gid))] = c
		}
		space := coverage.NewSpace(d, cfg.Sensitive, cfg.CoverageThreshold)
		for _, m := range space.MUPs(0, nil) {
			l.UncoveredPatterns = append(l.UncoveredPatterns, space.Describe(m.Pattern))
		}
		var features []string
		s := d.Schema()
		for i := 0; i < s.Len(); i++ {
			if s.Attr(i).Role == dataset.Feature && s.Attr(i).Kind == dataset.Numeric {
				features = append(features, s.Attr(i).Name)
			}
		}
		if cfg.Target != "" {
			l.AttributeBias = RankAttrBias(d, features, cfg.Sensitive, cfg.Target, cfg.Positive)
			for _, fd := range FindFDs(d, cfg.FDEpsilon) {
				if fd.Rhs == cfg.Target && contains(cfg.Sensitive, fd.Lhs) {
					l.SensitiveTargetFDs = append(l.SensitiveTargetFDs, fd)
				}
			}
		}
		for _, p := range l.Columns {
			if p.Nulls == 0 {
				continue
			}
			fracs, mg := GroupMissingness(d, p.Name, cfg.Sensitive)
			for gid, frac := range fracs {
				l.Missingness[p.Name+"|"+string(mg.Key(gid))] = frac
			}
		}
	}
	return l
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// JSON renders the label as indented JSON — the datasheet artifact shipped
// alongside the data.
func (l *Label) JSON() ([]byte, error) {
	return json.MarshalIndent(l, "", "  ")
}

// Datasheet is the qualitative companion of a Label: the free-text fields
// of "Datasheets for Datasets" that cannot be computed, plus the computed
// label.
type Datasheet struct {
	Motivation        string `json:"motivation"`
	Composition       string `json:"composition"`
	CollectionProcess string `json:"collection_process"`
	RecommendedUses   string `json:"recommended_uses"`
	KnownLimitations  string `json:"known_limitations"`
	Label             *Label `json:"label"`
}

// JSON renders the datasheet as indented JSON.
func (ds *Datasheet) JSON() ([]byte, error) {
	return json.MarshalIndent(ds, "", "  ")
}
