/**
 * @file
 * The compact per-node configuration of the scale workloads
 * (apps/flood, apps/routedquery): the default for their `node`
 * members, and what the scale bench and tests build bare grids with.
 */

#ifndef TRANSPUTER_APPS_SCALE_NODE_HH
#define TRANSPUTER_APPS_SCALE_NODE_HH

#include "core/transputer.hh"

namespace transputer::apps
{

/**
 * A small on-chip-only memory (the flood and query programs plus
 * their workspaces fit easily), a minimal predecode cache, and the
 * block-compiler, flight-recorder and trace machinery left off, so an
 * idle node's side structures stay under a kilobyte of host memory.
 * All of these are acceleration/observability knobs: execution is
 * bit-identical to the default configuration.
 */
inline core::Config
scaleNodeConfig()
{
    core::Config c;
    c.onchipBytes = 2048;
    c.externalBytes = 0;
    c.icacheEntries = 8;
    c.blockCompile = false;
    c.flight = false;
    return c;
}

} // namespace transputer::apps

#endif // TRANSPUTER_APPS_SCALE_NODE_HH
