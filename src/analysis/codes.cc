#include "analysis/codes.h"

namespace lopass::analysis {

const std::vector<CodeInfo>& AllCodes() {
  static const std::vector<CodeInfo> kCodes = {
      // --- L1xx: IR structural verification --------------------------
      {"L100", Severity::kError, "module has no functions",
       "define at least one function (the entry, usually 'main')"},
      {"L101", Severity::kError, "function has no blocks or no valid entry block",
       "give the function a body; the first block becomes the entry"},
      {"L102", Severity::kError, "block does not end in a terminator",
       "end every block with ret, br or condbr"},
      {"L103", Severity::kError, "terminator in the middle of a block",
       "split the block; instructions after a terminator never execute"},
      {"L104", Severity::kError, "operand count does not match the opcode",
       "emit the operation with the arity ir/opcode.h specifies"},
      {"L105", Severity::kError, "operand vreg out of range",
       "allocate vregs through FunctionBuilder::NewVreg"},
      {"L106", Severity::kError, "vreg used before defined within its block",
       "cross-block values must flow through named variables, not vregs"},
      {"L107", Severity::kError, "branch target out of range",
       "create the target block before emitting the branch"},
      {"L108", Severity::kError, "readvar/writevar does not name a scalar symbol",
       "use loadelem/storeelem for arrays; check the symbol id"},
      {"L109", Severity::kError, "loadelem/storeelem does not name an array symbol",
       "use readvar/writevar for scalars; check the symbol id"},
      {"L110", Severity::kError, "call target is not a function with a body",
       "declare the callee before lowering call sites to it"},
      {"L111", Severity::kError, "call arity does not match the callee",
       "pass exactly one argument per callee parameter"},
      {"L112", Severity::kError, "call is recursive",
       "functions are statically allocated; rewrite the recursion as a loop"},

      // --- L2xx: IR dataflow lints ----------------------------------
      {"L200", Severity::kWarning, "local scalar is read but never assigned",
       "assign the variable before reading it (locals start at zero, but a "
       "never-written local is usually a logic error)"},
      {"L201", Severity::kWarning, "value stored to a local scalar is never read",
       "remove the dead store or use the stored value"},
      {"L202", Severity::kWarning, "variable is never used",
       "remove the declaration"},
      {"L203", Severity::kWarning, "array is never used",
       "remove the declaration"},
      {"L204", Severity::kWarning, "block is unreachable",
       "remove code after return/break, or fix the branch that skips it"},
      {"L205", Severity::kWarning, "branch condition is a constant",
       "the branch always goes one way; simplify the condition or drop the if"},
      {"L206", Severity::kWarning, "function is never called",
       "remove the function or call it from the entry"},
      {"L207", Severity::kWarning, "constant array index out of bounds",
       "a compile-time-constant index must satisfy 0 <= index < length; the "
       "interpreter would fault on it at run time"},

      // --- L3xx: partition / cluster invariants ---------------------
      {"L300", Severity::kError, "cluster references a nonexistent block",
       "decomposition bug: cluster block lists must index real blocks"},
      {"L301", Severity::kError, "cluster chain ordering broken",
       "chain members must occupy ids 0..len-1 equal to their chain position"},
      {"L302", Severity::kError, "chain members overlap",
       "each entry-function block belongs to exactly one chain member"},
      {"L303", Severity::kError, "cached gen/use sets disagree with recomputation",
       "dataflow bug: gen/use must match an independent worklist recomputation"},
      {"L304", Severity::kError, "bus-transfer estimate out of bounds",
       "transfer words must stay within the module's static data; check the "
       "synergy subtraction of Fig. 3 steps 2/4"},
      {"L305", Severity::kError, "HW selection is not exclusive",
       "a chain position may be mapped to the ASIC at most once, and only "
       "hardware candidates may be selected"},
      {"L306", Severity::kError, "cluster candidate flags inconsistent",
       "hw_candidate/contains_calls must agree with the cluster's blocks"},

      // --- L4xx: schedule validation --------------------------------
      {"L400", Severity::kError, "schedule does not cover the DFG exactly once",
       "scheduler bug: one scheduled op per DFG node"},
      {"L401", Severity::kError, "schedule violates a data dependence",
       "an op may not start before its predecessors finish (or chain legally)"},
      {"L402", Severity::kError, "schedule oversubscribes the resource set",
       "per-type concurrent ops must fit the designer's instance budget"},
      {"L403", Severity::kError, "reported control-step count wrong",
       "num_steps must equal the schedule's makespan"},
      {"L404", Severity::kError, "op latency/resource inconsistent with the library",
       "latency must come from the library spec of an admissible resource type"},

      // --- L5xx: netlist / datapath / Verilog -----------------------
      {"L500", Severity::kError, "combinational loop through chained units",
       "operator chaining within one control step must stay acyclic"},
      {"L501", Severity::kError, "Verilog vector width mismatch",
       "declare datapath vectors [width-1:0]; the FSM state register is sized "
       "by the state count"},
      {"L502", Severity::kError, "unit instantiated or node bound more than once",
       "binding bug: one instance per (type, instance), one unit per op"},
      {"L503", Severity::kError, "unconnected or dangling unit",
       "every producer key must resolve and every working unit needs an input"},
      {"L504", Severity::kWarning, "input mux fan-in very large",
       "more than 32 steering legs; consider a bigger resource set so fewer "
       "ops share one instance"},
      {"L505", Severity::kError, "FSM state count wrong",
       "controller states must equal the schedules' steps plus one idle state"},
  };
  return kCodes;
}

const CodeInfo* FindCode(std::string_view code) {
  for (const CodeInfo& c : AllCodes()) {
    if (code == c.code) return &c;
  }
  return nullptr;
}

bool CodeMatchesPattern(std::string_view code, std::string_view pattern) {
  if (code == pattern) return true;
  // Class pattern "L2xx" matches every code sharing the hundreds digit.
  if (pattern.size() == 4 && code.size() == 4 && pattern[2] == 'x' && pattern[3] == 'x') {
    return code[0] == pattern[0] && code[1] == pattern[1];
  }
  return false;
}

}  // namespace lopass::analysis
