package config

import (
	"fmt"
	"strings"
)

// Parse reads a strict YAML-subset experiment document:
//
//	# comments (full-line or trailing, '#' after whitespace) and blank
//	# lines are ignored
//	version: 1
//	seed: 42
//
//	method:            # a section header opens a block...
//	  name: fedcdp     # ...of indented "key: value" lines
//	  sigma: 0.06
//
// Scalars are plain tokens; Go-quoted strings ("...") carry values the
// plain grammar cannot (empty strings, leading '#'); sweep seed lists are
// written inline as [1, 2, 3]. Everything else is rejected with a line
// number: unknown sections and keys, duplicate keys, values on section
// headers, indented keys outside a section, tabs in indentation, and
// documents declaring any schema version this build does not read.
//
// Omitted keys and sections mean Default, so the empty document is the
// default run of every binary.
func Parse(b []byte) (*Experiment, error) {
	e := Default()
	seen := map[string]bool{}
	// set is setKey under a document's extra rule: a key appears once.
	set := func(section, key, value string, lineNo int) error {
		id := keyID(section, key)
		if seen[id] {
			return fmt.Errorf("line %d: duplicate key %s", lineNo, id)
		}
		seen[id] = true
		if value == "" {
			return fmt.Errorf("line %d: %s: missing value (use %q for an explicit empty string)", lineNo, id, `""`)
		}
		if err := setKey(e, section, key, value); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		return nil
	}
	section := ""
	for i, raw := range strings.Split(string(b), "\n") {
		line := stripComment(strings.TrimSuffix(raw, "\r"))
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		lineNo := i + 1
		indented := line[0] == ' ' || line[0] == '\t'
		if strings.HasPrefix(line, "\t") {
			return nil, fmt.Errorf("line %d: tab indentation (use spaces)", lineNo)
		}
		key, value, ok := strings.Cut(trimmed, ":")
		if !ok {
			return nil, fmt.Errorf("line %d: not a %q line: %q", lineNo, "key: value", trimmed)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		if key == "" {
			return nil, fmt.Errorf("line %d: empty key", lineNo)
		}

		if !indented {
			if value == "" {
				// Section header.
				if !index.sections[key] {
					return nil, fmt.Errorf("line %d: %w", lineNo, errUnknownSection(key))
				}
				if seen["§"+key] {
					return nil, fmt.Errorf("line %d: duplicate section %q", lineNo, key)
				}
				seen["§"+key] = true
				section = key
				continue
			}
			if index.sections[key] {
				return nil, fmt.Errorf("line %d: section %q takes no value", lineNo, key)
			}
			// Top-level scalar (version, seed).
			section = ""
			if err := set("", key, value, lineNo); err != nil {
				return nil, err
			}
			continue
		}

		if section == "" {
			return nil, fmt.Errorf("line %d: indented key %q outside a section", lineNo, key)
		}
		if err := set(section, key, value, lineNo); err != nil {
			return nil, err
		}
	}
	if e.Version != Version {
		return nil, fmt.Errorf("unsupported config version %d (this build reads version %d)", e.Version, Version)
	}
	return e, nil
}

// stripComment removes a trailing comment: a '#' outside a quoted string,
// at line start or preceded by whitespace (so "trimmed:0.34#x" stays
// intact while "rule: trimmed:0.34  # two per tail" loses the note).
func stripComment(line string) string {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case '#':
			if !inQuote && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
				return line[:i]
			}
		}
	}
	return line
}

func sectionNames() []string {
	var out []string
	for _, s := range sectionOrder {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}
