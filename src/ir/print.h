#pragma once

// Textual dump of IR modules/functions for debugging and golden tests.

#include <string>

#include "ir/module.h"

namespace lopass::ir {

std::string ToString(const Module& m);
std::string ToString(const Module& m, const Function& f);
std::string ToString(const Module& m, const Instr& in);

}  // namespace lopass::ir
