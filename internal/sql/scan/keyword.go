package scan

// KwID identifies a recognised SQL keyword. The lexer resolves every
// identifier against a length-bucketed keyword table exactly once, at
// scan time, and stamps the id on the token — the parser's keyword
// tests are then integer compares, with no strings.ToUpper/EqualFold
// (and therefore no allocation) on the hot path.
type KwID uint8

// Keyword ids. KwNone marks a plain identifier.
//
// The reserved keywords — the words that terminate an implicit alias
// and may not appear as bare column references — form one contiguous
// block so Reserved() is a two-ended range test.
const (
	KwNone KwID = iota

	// reserved block (keep sorted; bounded by kwReservedEnd)
	KwAnd
	KwAs
	KwAsc
	KwBetween
	KwBy
	KwCase
	KwCross
	KwDelete
	KwDesc
	KwDistinct
	KwElse
	KwEnd
	KwExcept
	KwExists
	KwFalse
	KwFrom
	KwGroup
	KwHaving
	KwIn
	KwInner
	KwInsert
	KwIntersect
	KwIs
	KwJoin
	KwLeft
	KwLike
	KwLimit
	KwNot
	KwNull
	KwOffset
	KwOn
	KwOr
	KwOrder
	KwSelect
	KwSet
	KwThen
	KwTrue
	KwUnion
	KwUpdate
	KwValues
	KwWhen
	KwWhere
	kwReservedEnd

	// non-reserved: recognised in clause positions, usable as
	// identifiers and aliases everywhere else
	KwAll
	KwAnalyze
	KwBegin
	KwCast
	KwCommit
	KwCreate
	KwDefault
	KwDescribe
	KwDrop
	KwExplain
	KwHash
	KwIf
	KwIndex
	KwInto
	KwNow
	KwOuter
	KwPeriod
	KwRollback
	KwShow
	KwStatementMemory
	KwStatementTimeout
	KwTable
	KwTables
	KwTransaction
	KwUsing
	KwWork

	kwMax
)

// kwNames maps each id to its canonical upper-case spelling.
var kwNames = [kwMax]string{
	KwAnd: "AND", KwAs: "AS", KwAsc: "ASC", KwBetween: "BETWEEN",
	KwBy: "BY", KwCase: "CASE", KwCross: "CROSS", KwDelete: "DELETE",
	KwDesc: "DESC", KwDistinct: "DISTINCT", KwElse: "ELSE", KwEnd: "END",
	KwExcept: "EXCEPT", KwExists: "EXISTS", KwFalse: "FALSE",
	KwFrom: "FROM", KwGroup: "GROUP", KwHaving: "HAVING", KwIn: "IN",
	KwInner: "INNER", KwInsert: "INSERT", KwIntersect: "INTERSECT",
	KwIs: "IS", KwJoin: "JOIN", KwLeft: "LEFT", KwLike: "LIKE",
	KwLimit: "LIMIT", KwNot: "NOT", KwNull: "NULL", KwOffset: "OFFSET",
	KwOn: "ON", KwOr: "OR", KwOrder: "ORDER", KwSelect: "SELECT",
	KwSet: "SET", KwThen: "THEN", KwTrue: "TRUE", KwUnion: "UNION",
	KwUpdate: "UPDATE", KwValues: "VALUES", KwWhen: "WHEN",
	KwWhere: "WHERE",

	KwAll: "ALL", KwAnalyze: "ANALYZE", KwBegin: "BEGIN", KwCast: "CAST",
	KwCommit: "COMMIT", KwCreate: "CREATE", KwDefault: "DEFAULT",
	KwDescribe: "DESCRIBE", KwDrop: "DROP", KwExplain: "EXPLAIN",
	KwHash: "HASH", KwIf: "IF",
	KwIndex: "INDEX", KwInto: "INTO", KwNow: "NOW", KwOuter: "OUTER",
	KwPeriod: "PERIOD", KwRollback: "ROLLBACK", KwShow: "SHOW",
	KwStatementMemory:  "STATEMENT_MEMORY",
	KwStatementTimeout: "STATEMENT_TIMEOUT", KwTable: "TABLE",
	KwTables: "TABLES", KwTransaction: "TRANSACTION", KwUsing: "USING",
	KwWork: "WORK",
}

// String returns the canonical upper-case spelling ("" for KwNone).
func (k KwID) String() string {
	if k < kwMax {
		return kwNames[k]
	}
	return ""
}

// Reserved reports whether the keyword terminates an implicit alias and
// is barred from bare column-reference position.
func (k KwID) Reserved() bool { return k > KwNone && k < kwReservedEnd }

// maxKwLen bounds the keyword bucket index (STATEMENT_TIMEOUT).
const maxKwLen = 17

type kwEntry struct {
	name   string // canonical upper-case spelling
	folded string // spelling pre-folded under |0x20, so verification is branch-free
	id     KwID
}

// kwHash buckets keywords by a case-folding rolling hash that the lexer
// computes for free while it scans an identifier, so a lookup touches at
// most one or two candidates (and a non-keyword identifier usually hits
// an empty bucket); candidates are verified with an allocation-free
// ASCII case fold.
var kwHash [256][]kwEntry

func init() {
	for id := KwID(1); id < kwMax; id++ {
		n := kwNames[id]
		if n == "" { // the kwReservedEnd marker
			continue
		}
		h := kwFoldHash(n)
		f := make([]byte, len(n))
		for i := 0; i < len(n); i++ {
			f[i] = n[i] | 0x20
		}
		kwHash[h&255] = append(kwHash[h&255], kwEntry{n, string(f), id})
	}
}

// kwFoldHash mirrors the rolling hash the lexer accumulates during its
// identifier scan: ASCII letters fold to lower case via |0x20 (other
// identifier bytes shift consistently, which is all that matters).
func kwFoldHash(s string) uint32 {
	h := uint32(0)
	for i := 0; i < len(s); i++ {
		h = h*31 + uint32(s[i]|0x20)
	}
	return h
}

// LookupKeyword resolves an identifier (any case) to its keyword id, or
// KwNone. It never allocates.
func LookupKeyword(s string) KwID {
	if len(s) < 2 || len(s) > maxKwLen {
		return KwNone
	}
	return lookupKwHash(s, kwFoldHash(s))
}

// lookupKwHash is the scan-time entry point: h must be kwFoldHash(s).
func lookupKwHash(s string, h uint32) KwID {
	for _, e := range kwHash[h&255] {
		if len(e.folded) == len(s) && foldEq(s, e.folded) {
			return e.id
		}
	}
	return KwNone
}

// foldEq reports whether s equals folded under the same branch-free
// |0x20 byte fold used to build kwEntry.folded (an exact lower-casing
// for ASCII letters; '_' and digits map consistently on both sides, so
// equality under the fold is equality under ASCII case-insensitivity
// for identifier-shaped inputs). The caller guarantees equal lengths.
func foldEq(s, folded string) bool {
	for i := 0; i < len(folded); i++ {
		if s[i]|0x20 != folded[i] {
			return false
		}
	}
	return true
}
