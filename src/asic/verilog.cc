#include "asic/verilog.h"

#include <cctype>
#include <cmath>
#include <sstream>

namespace lopass::asic {

namespace {

std::string Sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'u');
  }
  return out;
}

const char* UnitModule(power::ResourceType t) {
  switch (t) {
    case power::ResourceType::kAlu: return "sl_alu32";
    case power::ResourceType::kAdder: return "sl_add32";
    case power::ResourceType::kComparator: return "sl_cmp32";
    case power::ResourceType::kShifter: return "sl_bshift32";
    case power::ResourceType::kMultiplier: return "sl_mul32x32";
    case power::ResourceType::kDivider: return "sl_divseq32";
    case power::ResourceType::kRegister: return "sl_reg32";
    case power::ResourceType::kMemoryPort: return "sl_memport";
    case power::ResourceType::kCount: break;
  }
  return "sl_unit";
}

int Clog2(std::uint32_t v) {
  int bits = 1;
  while ((1u << bits) < v) ++bits;
  return bits;
}

}  // namespace

std::string EmitVerilog(const AsicCore& core, const Datapath& datapath) {
  const std::string name = Sanitize("core_" + core.name);
  const int w = kVerilogDataWidth;
  const int state_bits = Clog2(std::max(2u, datapath.fsm_states));

  std::ostringstream os;
  os << "// Structural skeleton emitted by lopass (asic::EmitVerilog).\n"
     << "// " << core.resource_set << ", " << core.cells << " cells, U_R="
     << core.utilization << ", clock " << core.clock_period.nanoseconds() << " ns\n"
     << "module " << name << " (\n"
     << "  input  wire        clk,\n"
     << "  input  wire        rst_n,\n"
     << "  // Shared-bus handshake (Fig. 2a): the uP core starts the job,\n"
     << "  // the core fetches/deposits operands in shared memory.\n"
     << "  input  wire        start,\n"
     << "  output reg         done,\n"
     << "  output reg         bus_req,\n"
     << "  input  wire        bus_gnt,\n"
     << "  output reg  [" << w - 1 << ":0] bus_addr,\n"
     << "  inout  wire [" << w - 1 << ":0] bus_data,\n"
     << "  output reg         bus_we\n"
     << ");\n\n";

  os << "  // Controller FSM: " << datapath.fsm_states << " states.\n"
     << "  reg [" << state_bits - 1 << ":0] state;\n"
     << "  localparam S_IDLE = " << state_bits << "'d0;\n\n";

  os << "  // Datapath registers (register file + pipeline temporaries).\n";
  os << "  // Interconnect: " << datapath.total_mux_legs << " mux legs, "
     << datapath.mux_geq << " GEQ of steering logic.\n\n";

  for (const DatapathUnit& u : datapath.units) {
    const std::string inst =
        std::string(power::ResourceTypeName(u.type)) + "_" + std::to_string(u.instance);
    os << "  wire [" << w - 1 << ":0] " << inst << "_a, " << inst << "_b, " << inst
       << "_y;\n";
    if (u.mux_legs() > 1) {
      os << "  // " << u.mux_legs() << ":1 input steering for " << inst << " (sources:";
      for (int p : u.producers) {
        if (p < 0) {
          os << " regfile";
        } else {
          os << ' '
             << power::ResourceTypeName(static_cast<power::ResourceType>(p / 256)) << '_'
             << (p % 256);
        }
      }
      os << ")\n";
      os << "  /* mux tree for " << inst << "_a / " << inst << "_b elided */\n";
    }
    os << "  " << UnitModule(u.type) << " " << inst << " (.a(" << inst << "_a), .b("
       << inst << "_b), .y(" << inst << "_y));\n\n";
  }

  os << "  always @(posedge clk or negedge rst_n) begin\n"
     << "    if (!rst_n) begin\n"
     << "      state  <= S_IDLE;\n"
     << "      done   <= 1'b0;\n"
     << "      bus_req<= 1'b0;\n"
     << "      bus_we <= 1'b0;\n"
     << "      bus_addr <= " << w << "'d0;\n"
     << "    end else begin\n"
     << "      /* per-state control word table (" << datapath.fsm_states
     << " states) elided */\n"
     << "    end\n"
     << "  end\n\n"
     << "endmodule\n";
  return os.str();
}

}  // namespace lopass::asic
