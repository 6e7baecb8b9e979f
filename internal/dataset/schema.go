package dataset

import "fmt"

// Attribute describes one column of a schema.
type Attribute struct {
	Name string
	Kind Kind
	Role Role
}

// Schema is an ordered list of attributes with unique names.
type Schema struct {
	attrs  []Attribute
	byName map[string]int
}

// NewSchema builds a schema from the given attributes. It panics on a
// duplicate or empty attribute name, which indicates a programming error.
func NewSchema(attrs ...Attribute) *Schema {
	s := &Schema{
		attrs:  make([]Attribute, len(attrs)),
		byName: make(map[string]int, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i, a := range attrs {
		if a.Name == "" {
			panic("dataset: attribute with empty name")
		}
		if _, dup := s.byName[a.Name]; dup {
			panic(fmt.Sprintf("dataset: duplicate attribute %q", a.Name))
		}
		s.byName[a.Name] = i
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Index returns the position of the named attribute and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// MustIndex returns the position of the named attribute, panicking if it
// does not exist. Use for attribute names that come from code, not input.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("dataset: unknown attribute %q", name))
	}
	return i
}

// CheckSensitive returns an error naming the first of names that cannot
// be a sensitive attribute: one the schema lacks, or a numeric one, since
// grouping and coverage need categorical attributes. It returns nil if
// every name is a categorical attribute. Callers check names that come
// from input once, where they enter, so the kernels need not.
func (s *Schema) CheckSensitive(names []string) error {
	for _, name := range names {
		i, ok := s.byName[name]
		if !ok {
			return fmt.Errorf("sensitive attribute %q is not in the schema", name)
		}
		if s.attrs[i].Kind != Categorical {
			return fmt.Errorf("sensitive attribute %q is %s; sensitive attributes must be categorical", name, s.attrs[i].Kind)
		}
	}
	return nil
}

// Names returns the attribute names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// ByRole returns the names of attributes with the given role, in order.
func (s *Schema) ByRole(r Role) []string {
	var out []string
	for _, a := range s.attrs {
		if a.Role == r {
			out = append(out, a.Name)
		}
	}
	return out
}

// Equal reports whether two schemas have identical attribute lists.
func (s *Schema) Equal(t *Schema) bool {
	if s.Len() != t.Len() {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != t.attrs[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "name:kind:role, ...".
func (s *Schema) String() string {
	out := ""
	for i, a := range s.attrs {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s:%s:%s", a.Name, a.Kind, a.Role)
	}
	return out
}
