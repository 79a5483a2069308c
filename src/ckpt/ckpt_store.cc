#include "ckpt/ckpt_store.h"

#include <cstdlib>

namespace rnr {
namespace ckpt {

CheckpointStore::CheckpointStore()
    : blobs_("ckpt", &CheckpointStore::rootPath, &CheckpointStore::enabled,
             ".ckpt")
{
}

CheckpointStore &
CheckpointStore::instance()
{
    static CheckpointStore store;
    return store;
}

bool
CheckpointStore::enabled()
{
    const char *p = std::getenv("RNR_CKPT");
    return !(p && std::string(p) == "0");
}

std::string
CheckpointStore::rootPath()
{
    if (const char *p = std::getenv("RNR_CKPT_DIR"); p && *p)
        return p;
    return "rnr_ckpt";
}

void
CheckpointStore::resetForTest()
{
    blobs_.resetForTest();
    warmups_ = 0;
    forks_ = 0;
}

} // namespace ckpt
} // namespace rnr
