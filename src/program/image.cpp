#include "program/image.hpp"

#include <algorithm>

#include "program/program.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace fpmix::program {

std::uint64_t Image::origin_of(std::uint64_t addr) const {
  auto it = std::lower_bound(
      origins.begin(), origins.end(), addr,
      [](const OriginEntry& e, std::uint64_t a) { return e.addr < a; });
  if (it != origins.end() && it->addr == addr) return it->origin;
  return addr;
}

const Symbol* Image::find_function_at(std::uint64_t addr) const {
  for (const Symbol& s : symbols) {
    if (addr >= s.addr && addr < s.addr + s.size) return &s;
  }
  return nullptr;
}

const Symbol* Image::find_function(std::string_view name) const {
  for (const Symbol& s : symbols) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::span<const std::uint8_t> Image::function_bytes(const Symbol& sym) const {
  FPMIX_CHECK(sym.addr >= code_base);
  FPMIX_CHECK(sym.addr + sym.size <= code_end());
  return std::span<const std::uint8_t>(code).subspan(sym.addr - code_base,
                                                     sym.size);
}

void Image::validate() const {
  if (symbols.empty()) throw ProgramError("image has no symbols");
  std::uint64_t prev_end = code_base;
  for (const Symbol& s : symbols) {
    if (s.addr != prev_end) {
      throw ProgramError(strformat(
          "symbol %s at 0x%llx does not abut previous symbol end 0x%llx",
          s.name.c_str(), static_cast<unsigned long long>(s.addr),
          static_cast<unsigned long long>(prev_end)));
    }
    prev_end = s.addr + s.size;
  }
  if (prev_end != code_end()) {
    throw ProgramError("symbols do not cover the code segment");
  }
  validate_sections(*this, code_end(), entry);
}

template <typename Sections>
void validate_sections(const Sections& s, std::uint64_t code_end,
                       std::uint64_t entry) {
  // The symbols tile [code_base, code_end), so "inside some function" is
  // this range test.
  if (entry < s.code_base || entry >= code_end) {
    throw ProgramError("entry point is not inside any function");
  }
  if (s.data_base < code_end) {
    throw ProgramError("data segment overlaps code segment");
  }
  if (s.bss_base != 0 && s.data_base + s.data.size() > s.bss_base) {
    throw ProgramError("data segment overlaps bss segment");
  }
  const std::uint64_t bss_base =
      s.bss_base != 0 ? s.bss_base : s.data_base + s.data.size();
  if (bss_base + s.bss_size > s.memory_size) {
    throw ProgramError("data/bss segments do not fit in VM memory");
  }
}

template void validate_sections(const Image&, std::uint64_t, std::uint64_t);
template void validate_sections(const Program&, std::uint64_t, std::uint64_t);

}  // namespace fpmix::program
