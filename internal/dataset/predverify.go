package dataset

import "fmt"

// This file is the bytecode verifier for compiled predicate programs. Both
// VM loops — the row-at-a-time match and the partition driver's vectorized
// replay — index slot bindings, membership tables, and the boolean or
// bitmap stack directly off instruction operands, so a malformed program
// could read out of bounds or corrupt the stack. verify statically
// establishes, once at compile time, every invariant the hot loops rely on:
//
//   - the per-slot arrays (schema columns, dictionaries, attribute names)
//     are mutually consistent, so a slot in range has a binding;
//   - every instruction's opcode is known — the instruction set has no
//     jumps, so control-flow validity is vacuous: execution is a single
//     linear pass and this check is what keeps it that way;
//   - every operand is in range for its opcode: column slots index the
//     slot arrays, pEqCode dictionary codes index the slot's dictionary,
//     pInSet tables exist and are sized to the slot's dictionary (+1 for
//     the null code at table slot 0), pCmpOp carries a defined CompareOp;
//   - the boolean stack is statically safe: no operator pops an empty
//     stack, the simulated depth never exceeds the program's declared
//     depth (which sizes both the row VM's stack and the driver's bitmap
//     stack), and the program exits with exactly one value on the stack
//     (the match result at depth 1).
//
// It checks the program against its slots and dictionaries only: the
// program holds no rows, and every partition a driver binds covers its own
// rows by the PartitionSource contract. Both loops refuse to run a program
// that has not passed verification, so they only ever see programs for
// which every access was proven in range.

// verify checks the program against its slots and dictionaries and returns
// the first violated invariant, or nil when the program is safe to execute.
func (cp *CompiledPredicate) verify() error {
	if len(cp.code) == 0 {
		return fmt.Errorf("dataset: verify: empty program")
	}
	if cp.depth < 1 {
		return fmt.Errorf("dataset: verify: declared stack depth %d < 1", cp.depth)
	}
	if len(cp.catDicts) != len(cp.catCols) || len(cp.catAttrs) != len(cp.catCols) {
		return fmt.Errorf("dataset: verify: categorical binding arrays disagree (%d cols, %d dicts, %d attrs)",
			len(cp.catCols), len(cp.catDicts), len(cp.catAttrs))
	}
	if len(cp.numAttrs) != len(cp.numCols) {
		return fmt.Errorf("dataset: verify: numeric binding arrays disagree (%d cols, %d attrs)",
			len(cp.numCols), len(cp.numAttrs))
	}

	sp := 0
	for i := range cp.code {
		in := &cp.code[i]
		switch in.op {
		case pConstOp:
			// Any a is a valid boolean encoding (0 false, nonzero true).
		case pEqCode:
			if err := cp.checkCatSlot(i, in.a); err != nil {
				return err
			}
			if in.b < 0 || int(in.b) >= len(cp.catDicts[in.a]) {
				return fmt.Errorf("dataset: verify: instr %d: dictionary code %d out of range [0, %d)", i, in.b, len(cp.catDicts[in.a]))
			}
		case pInSet:
			if err := cp.checkCatSlot(i, in.a); err != nil {
				return err
			}
			if in.b < 0 || int(in.b) >= len(cp.sets) {
				return fmt.Errorf("dataset: verify: instr %d: set index %d out of range [0, %d)", i, in.b, len(cp.sets))
			}
			// The scan kernels index sets[b][code+1] for any code in the
			// column, including the null code -1 at table slot 0.
			if want := len(cp.catDicts[in.a]) + 1; len(cp.sets[in.b]) != want {
				return fmt.Errorf("dataset: verify: instr %d: set %d has %d slots, slot %d's dictionary needs %d",
					i, in.b, len(cp.sets[in.b]), in.a, want)
			}
		case pRangeOp:
			if err := cp.checkNumSlot(i, in.a); err != nil {
				return err
			}
		case pCmpOp:
			if err := cp.checkNumSlot(i, in.a); err != nil {
				return err
			}
			if in.b < 0 || CompareOp(in.b) > CmpNE {
				return fmt.Errorf("dataset: verify: instr %d: unknown compare op %d", i, in.b)
			}
		case pNotNullCat, pIsNullCat:
			if err := cp.checkCatSlot(i, in.a); err != nil {
				return err
			}
		case pNotNullNum, pIsNullNum:
			if err := cp.checkNumSlot(i, in.a); err != nil {
				return err
			}
		case pAndOp, pOrOp:
			if sp < 2 {
				return fmt.Errorf("dataset: verify: instr %d: binary operator on stack of %d", i, sp)
			}
		case pNotOp:
			if sp < 1 {
				return fmt.Errorf("dataset: verify: instr %d: not on empty stack", i)
			}
		default:
			return fmt.Errorf("dataset: verify: instr %d: unknown opcode %d", i, in.op)
		}
		// Stack effect: leaves push one, binary operators net-pop one, not
		// is neutral.
		switch in.op {
		case pAndOp, pOrOp:
			sp--
		case pNotOp:
		default:
			sp++
			if sp > cp.depth {
				return fmt.Errorf("dataset: verify: instr %d: stack depth %d exceeds declared %d", i, sp, cp.depth)
			}
		}
	}
	if sp != 1 {
		return fmt.Errorf("dataset: verify: program exits with stack depth %d, want 1", sp)
	}
	return nil
}

func (cp *CompiledPredicate) checkCatSlot(i int, a int32) error {
	if a < 0 || int(a) >= len(cp.catCols) {
		return fmt.Errorf("dataset: verify: instr %d: categorical slot %d out of range [0, %d)", i, a, len(cp.catCols))
	}
	return nil
}

func (cp *CompiledPredicate) checkNumSlot(i int, a int32) error {
	if a < 0 || int(a) >= len(cp.numCols) {
		return fmt.Errorf("dataset: verify: instr %d: numeric slot %d out of range [0, %d)", i, a, len(cp.numCols))
	}
	return nil
}

// mustBeVerified is the VM entry guard: the hot loops run without bounds
// checks and must never see a program the verifier has not accepted.
func (cp *CompiledPredicate) mustBeVerified() {
	if !cp.verified {
		panic("dataset: predicate program has not passed bytecode verification")
	}
}
