package algo

import (
	"fmt"
	"strconv"
	"strings"
)

// New resolves an algorithm by name, case insensitively. The grammar
// is the pattern list Names returns: <k> ≥ 1 is the number of machine
// groups, <c> ≥ 0 the number of tail tasks replicated everywhere.
func New(name string) (Algorithm, error) {
	lower := strings.ToLower(strings.TrimSpace(name))
	switch lower {
	case "lpt-nochoice":
		return LPTNoChoice(), nil
	case "ls-nochoice":
		return LSNoChoice(), nil
	case "lpt-norestriction":
		return LPTNoRestriction(), nil
	case "ls-norestriction":
		return LSNoRestriction(), nil
	case "oracle-lpt":
		return OracleLPT(), nil
	}
	for _, prefix := range []string{"ls-group:", "lpt-group:", "ls-group-balanced:"} {
		if strings.HasPrefix(lower, prefix) {
			k, err := strconv.Atoi(lower[len(prefix):])
			if err != nil || k < 1 {
				return nil, fmt.Errorf("algo: bad group count in %q", name)
			}
			switch prefix {
			case "ls-group:":
				return LSGroup(k), nil
			case "lpt-group:":
				return LPTGroup(k), nil
			default:
				return LSGroupBalanced(k), nil
			}
		}
	}
	if strings.HasPrefix(lower, "tail:") {
		c, err := strconv.Atoi(lower[len("tail:"):])
		if err != nil || c < 0 {
			return nil, fmt.Errorf("algo: bad tail count in %q", name)
		}
		return ReplicateTail(c), nil
	}
	return nil, fmt.Errorf("algo: unknown algorithm %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names lists the accepted algorithm name patterns: New's grammar,
// stated here once.
func Names() []string {
	return []string{
		"lpt-nochoice", "ls-nochoice", "lpt-norestriction",
		"ls-norestriction", "oracle-lpt", "ls-group:<k>", "lpt-group:<k>",
		"ls-group-balanced:<k>", "tail:<c>",
	}
}
