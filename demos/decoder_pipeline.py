"""Encode, damage, decode: synthesizing the decoder and measuring the result.

The Knill-Laflamme condition is the exact criterion for a decoder to
exist; once it holds, the decoder can be written down explicitly from
the Gram form of the error set.  This script does both for the
five-qubit wheel code and then measures pipelines with increasingly
hostile noise.
"""

import numpy as np

from graphqec import (
    Channel,
    error_space_basis,
    identity_channel,
    kl_verify,
    make_depolarizing,
    make_unitary_channel,
    phase_rotation,
    build_isometry,
    synthesize_decoder,
    tensor_channels,
    verify_etd,
    wheel_code,
)

code = wheel_code()
v = build_isometry(code)


def noise_on(sites_to_channel):
    return tensor_channels(
        *(sites_to_channel.get(site, identity_channel(2)) for site in range(code.n))
    )


print("=" * 70)
print("1. Verify the Knill-Laflamme condition numerically")
print("=" * 70)

# All words on at most one site (the identity plus 5 x 3 Weyl words).
errors = error_space_basis(code.n, code.d, 1)
rep = kl_verify(v, errors)
print(f"error set: {len(errors)} operators")
print(f"max deviation from scalar action: {rep.max_deviation:.3e}")
print("Gram form is the identity (the code is non-degenerate):",
      bool(np.abs(rep.gram - np.eye(len(errors))).max() < 1e-9))

print()
print("=" * 70)
print("2. Synthesize the decoder")
print("=" * 70)

decoder = synthesize_decoder(v, errors)
encoder = Channel((v,))
print(f"decoder has {len(decoder.kraus)} Kraus operators mapping",
      f"{decoder.dim_in} -> {decoder.dim_out}")

print()
print("=" * 70)
print("3. Round trips under correctable noise")
print("=" * 70)

# Any channel whose Kraus operators live on a single site is corrected
# exactly; the Choi trace distance of the whole pipeline to the
# identity is the figure of merit.
for q in (0.1, 0.3, 1.0):
    noisy = noise_on({2: make_depolarizing(2, q)})
    dist = verify_etd(encoder, noisy, decoder)
    print(f"depolarizing q={q:>4} on site 2 -> Choi distance {dist:.3e}")

rotation, cb_upper = make_unitary_channel(phase_rotation(2, 0.3))
noisy = noise_on({4: rotation})
print(f"unitary rotation theta=0.3 on site 4 -> Choi distance "
      f"{verify_etd(encoder, noisy, decoder):.3e} (cb upper bound {cb_upper:.4f})")

print()
print("=" * 70)
print("4. Where correction breaks")
print("=" * 70)

for sites in [(1, 3), (0, 4), (2, 3)]:
    noisy = noise_on({s: make_depolarizing(2, 0.3) for s in sites})
    dist = verify_etd(encoder, noisy, decoder)
    print(f"depolarizing on sites {sites} -> Choi distance {dist:.4f}")

print()
print("a code that corrects one error cannot correct two; the residual")
print("distance above is the price of the second damaged site")
