#ifndef URBANE_DATA_BINARY_IO_H_
#define URBANE_DATA_BINARY_IO_H_

#include <string>

#include "data/region.h"
#include "util/status.h"

namespace urbane::data {

/// Binary snapshot format for region sets ("URG1"): little-endian,
/// versioned magic, length-prefixed strings, coordinates stored as the
/// doubles in memory, so a reloaded layer is bit-identical (GeoJSON
/// re-projects coordinates and re-orients rings). Point sets persist as
/// UST1 block stores (store/store_writer.h).
Status WriteRegionSetBinary(const RegionSet& regions,
                            const std::string& path);
StatusOr<RegionSet> ReadRegionSetBinary(const std::string& path);

}  // namespace urbane::data

#endif  // URBANE_DATA_BINARY_IO_H_
