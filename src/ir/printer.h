// ESD IR: textual printing. Output round-trips through ir::ParseModule.
#ifndef ESD_SRC_IR_PRINTER_H_
#define ESD_SRC_IR_PRINTER_H_

#include <string>

#include "src/ir/module.h"

namespace esd::ir {

std::string PrintModule(const Module& module);
std::string PrintFunction(const Module& module, uint32_t func_index);
std::string PrintInstruction(const Module& module, const Function& fn,
                             const Instruction& inst);

// Content digest of a module: FNV-1a over the canonical printed text, i.e.
// over exactly the bytes PrintModule returns. The printer streams them into
// the hash, so no text is built. Two modules digest equal iff they print
// identically, which is exactly the "same program" notion the persistent
// caches key on — a patched module (even one that only renames a block)
// gets a new digest and therefore fresh tables instead of stale ones.
uint64_t ModuleDigest(const Module& module);

// 16-hex-digit rendering of ModuleDigest, used in cache file names and the
// `module <digest>` header line of the serve cache formats.
std::string ModuleDigestHex(const Module& module);

}  // namespace esd::ir

#endif  // ESD_SRC_IR_PRINTER_H_
