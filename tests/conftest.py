from hypothesis import settings

# selected with --hypothesis-profile=ci: a falsifying example prints the blob
# that reproduces it, and no example fails on time
settings.register_profile("ci", print_blob=True, deadline=None)
