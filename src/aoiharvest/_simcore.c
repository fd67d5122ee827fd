/* The compiled level walk of the simulation kernel, for B >= 2.

   _simcore_py.run_cycles drives it one chunk of uniforms at a time, as it
   drives its own walk, _simcore_py.walk_levels; the two must give the same
   bits. Both walk a chunk in two phases. The first takes every uniform's
   d = log(1 - u) / mu, with libm's log, in one loop with no branch; the
   second follows the battery level, and each draw's arrival comes at cycle
   age t - d. The caller owns the scratch array d. Built and loaded through
   ctypes by _simcore_cache. */
#include <math.h>
#include <stdint.h>

/* Walk the n_u uniforms u from level *level at cycle age *age, for the
   thresholds tau[0..B-1] at harvest rate mu, with d[0..n_u-1] as scratch.
   Each cycle completed writes its inter-update time to x and its
   post-update level to s, at most n of them. Returns the count, and stores
   back the level and age after the last draw. */
int64_t walk_levels(const double *tau, int64_t B, double mu, const double *u, int64_t n_u, double *d,
                    double *x, int64_t *s, int64_t n, int64_t *level, double *age)
{
    for (int64_t i = 0; i < n_u; i++)
        d[i] = log(1.0 - u[i]) / mu;
    int64_t L = *level, c = 0;
    double t = *age;
    for (int64_t i = 0; i < n_u && c < n; i++) {
        /* the update fires at max(tau_L, t) unless an arrival comes first;
           level 0 never fires */
        double cand = L ? tau[L - 1] : INFINITY;
        if (cand < t)
            cand = t;
        double t_next = t - d[i];
        if (!(cand < t_next)) {
            t = t_next;
            if (++L < B)
                continue;
            /* a full battery fires at max(tau_B, t) with no draw */
            cand = tau[B - 1];
            if (cand < t)
                cand = t;
        }
        x[c] = cand;
        s[c++] = --L;
        t = 0.0;
    }
    *level = L;
    *age = t;
    return c;
}
