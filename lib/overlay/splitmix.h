/* Prng.Splitmix in C, draw for draw: the step, the bounded int and the
   float, for the C passes that consume a generator (fill_stubs.c,
   sparse_stubs.c, the storage read loop). A caller copies the 8-byte
   state out of the Splitmix.t, steps its copy, and writes it back when
   its draw count depends on the values drawn.

   No allocation, no exceptions; callers check bounds. */

#ifndef RCM_SPLITMIX_H
#define RCM_SPLITMIX_H

#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#define SPLITMIX_GAMMA 0x9E3779B97F4A7C15ULL
#define SPLITMIX_MUL1 0xBF58476D1CE4E5B9ULL
#define SPLITMIX_MUL2 0x94D049BB133111EBULL

/* The output function of Prng.Splitmix: the state after a step,
   mixed. */
static inline uint64_t splitmix_mix(uint64_t z)
{
  z = (z ^ (z >> 30)) * SPLITMIX_MUL1;
  z = (z ^ (z >> 27)) * SPLITMIX_MUL2;
  return z ^ (z >> 31);
}

/* One step of Prng.Splitmix.next_int64: add gamma to the state, then
   mix. */
static inline uint64_t splitmix_next(uint64_t *state)
{
  return splitmix_mix(*state += SPLITMIX_GAMMA);
}

/* Prng.Splitmix.int at [bound] > 0: the top 62 bits of a draw, drawn
   again while above the rejection limit
   max62 - ((max62 mod bound) + 1) mod bound, then reduced mod [bound].
   The limit is never below max62 - bound + 1, so a draw at or below
   max62 - bound is accepted without computing it: the two divisions
   are paid only for the draws within [bound] of the top, which at any
   bound below 2^32 is one in a billion. */
static inline intnat splitmix_int(uint64_t *state, intnat bound)
{
  const intnat max62 = ((intnat)1 << 62) - 1;
  intnat v = (intnat)(splitmix_next(state) >> 2);
  if (v > max62 - bound) {
    intnat limit = max62 - (max62 % bound + 1) % bound;
    while (v > limit)
      v = (intnat)(splitmix_next(state) >> 2);
  }
  return v % bound;
}

/* Prng.Splitmix.int at a power-of-two bound, [mask] = bound - 1: the
   rejection limit there is max62 itself, so no draw is rejected, and
   the reduction is a mask instead of a division. */
static inline intnat splitmix_int_pow2(uint64_t *state, intnat mask)
{
  return (intnat)(splitmix_next(state) >> 2) & mask;
}

/* Prng.Splitmix.float: the draw's top 53 bits times 2^-53. */
static inline double splitmix_float(uint64_t *state)
{
  return (double)(int64_t)(splitmix_next(state) >> 11) * 0x1p-53;
}

/* The state of a Prng.Splitmix.t (an 8-byte Bytes.t), and back. */
static inline uint64_t splitmix_load(value rng)
{
  uint64_t s;
  memcpy(&s, Bytes_val(rng), sizeof s);
  return s;
}

static inline void splitmix_store(value rng, uint64_t s)
{
  memcpy(Bytes_val(rng), &s, sizeof s);
}

#endif
